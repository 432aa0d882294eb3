package workload

import (
	"math"
	"reflect"
	"testing"

	"dragster/internal/dag"
)

func TestAllSpecsValidate(t *testing.T) {
	specs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 {
		t.Fatalf("got %d specs, want 6", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate workload name %q", s.Name)
		}
		names[s.Name] = true
		// High load strictly above low load on every source.
		for i := range s.HighRates {
			if s.HighRates[i] <= s.LowRates[i] {
				t.Errorf("%s: high rate %v not above low %v", s.Name, s.HighRates[i], s.LowRates[i])
			}
		}
	}
}

func TestOperatorCountsMatchPaper(t *testing.T) {
	wants := map[string]int{
		"group": 1, "asyncio": 1, "join": 1,
		"window": 2, "wordcount": 2, "yahoo": 6,
	}
	for name, want := range wants {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Graph.NumOperators(); got != want {
			t.Errorf("%s: %d operators, want %d", name, got, want)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestHighRateOptimumInterior checks the calibration property Fig. 4
// relies on: at the high rate every operator's required capacity is
// reachable within the task grid, and at least one operator needs more
// than one task (the search problem is not trivial).
func TestHighRateOptimumInterior(t *testing.T) {
	specs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		maxCaps := make([]float64, s.Graph.NumOperators())
		oneCaps := make([]float64, s.Graph.NumOperators())
		for i, m := range s.Models {
			maxCaps[i] = m.Capacity(s.MaxTasks)
			oneCaps[i] = m.Capacity(1)
			if maxCaps[i] > s.YMax {
				t.Errorf("%s op %d: max capacity %v exceeds YMax %v", s.Name, i, maxCaps[i], s.YMax)
			}
		}
		full, err := s.Graph.Throughput(s.HighRates, maxCaps)
		if err != nil {
			t.Fatal(err)
		}
		tiny, err := s.Graph.Throughput(s.HighRates, oneCaps)
		if err != nil {
			t.Fatal(err)
		}
		if tiny >= 0.9*full {
			t.Errorf("%s: single-task config already near-optimal (%.0f vs %.0f) — search is trivial", s.Name, tiny, full)
		}
		rep, err := s.Graph.Evaluate(s.HighRates, maxCaps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range maxCaps {
			if rep.Demand[i] > maxCaps[i] {
				t.Errorf("%s op %d (%s): demand %.0f unreachable (max cap %.0f)",
					s.Name, i, s.Graph.OperatorName(i), rep.Demand[i], maxCaps[i])
			}
		}
	}
}

func TestYahooFilterSelectivity(t *testing.T) {
	s, err := Yahoo()
	if err != nil {
		t.Fatal(err)
	}
	caps := make([]float64, 6)
	for i, m := range s.Models {
		caps[i] = m.Capacity(s.MaxTasks)
	}
	th, err := s.Graph.Throughput(s.HighRates, caps)
	if err != nil {
		t.Fatal(err)
	}
	// Sink sees 0.4 × source (filter drops irrelevant events).
	want := 0.4 * s.HighRates[0]
	if th < 0.95*want || th > 1.05*want {
		t.Errorf("yahoo throughput %v, want ≈%v", th, want)
	}
}

// TestLearnedWordCountMatchesWordCount: at priorScale 1 the learned graph
// has WordCount's nodes and flows, every edge out of an operator is a
// LearnedLinear, the map learner starts at the map selectivity times the
// scale, and a non-positive scale is rejected.
func TestLearnedWordCountMatchesWordCount(t *testing.T) {
	wc, err := WordCount()
	if err != nil {
		t.Fatal(err)
	}
	g, mapK, err := LearnedWordCount(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumOperators() != 2 || g.OperatorName(0) != "map" || g.OperatorName(1) != "shuffle" {
		t.Fatalf("operators %d: %s, %s", g.NumOperators(), g.OperatorName(0), g.OperatorName(1))
	}
	for _, id := range g.Operators() {
		for _, ei := range g.SuccEdgeIDs(id) {
			if _, ok := g.HByID(ei).(*dag.LearnedLinear); !ok {
				t.Errorf("edge out of %s is %T", g.Name(id), g.HByID(ei))
			}
		}
	}
	for _, y := range [][]float64{{1e5, 1e5}, {3e4, 1e5}, {1e5, 2e4}} {
		want, err := wc.Graph.Evaluate(wc.HighRates, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.Evaluate(wc.HighRates, y)
		if err != nil {
			t.Fatal(err)
		}
		if got.Throughput != want.Throughput || got.Demand[0] != want.Demand[0] || got.Demand[1] != want.Demand[1] {
			t.Errorf("y = %v: learned graph gives %v (demand %v), WordCount %v (demand %v)", y, got.Throughput, got.Demand, want.Throughput, want.Demand)
		}
	}
	if mapK.K() != 2 {
		t.Errorf("priorScale 1: map prior %v, want 2", mapK.K())
	}
	_, half, err := LearnedWordCount(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.K() != 1 {
		t.Errorf("priorScale 0.5: map prior %v, want 1", half.K())
	}
	if _, _, err := LearnedWordCount(0); err == nil {
		t.Error("priorScale 0 accepted")
	}
}

func TestJoinLimitedBySlowSource(t *testing.T) {
	s, err := Join()
	if err != nil {
		t.Fatal(err)
	}
	caps := []float64{s.Models[0].Capacity(s.MaxTasks)}
	th, err := s.Graph.Throughput(s.HighRates, caps)
	if err != nil {
		t.Fatal(err)
	}
	slow := s.HighRates[1]
	if th > slow {
		t.Errorf("join throughput %v above slow side %v", th, slow)
	}
}

func TestConstantProfile(t *testing.T) {
	f, err := Constant([]float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	r := f(3, 100)
	if r[0] != 5 || r[1] != 6 {
		t.Errorf("Constant = %v", r)
	}
	if _, err := Constant(nil); err == nil {
		t.Error("empty rates accepted")
	}
}

func TestCycleProfile(t *testing.T) {
	f, err := Cycle(10, []float64{1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if f(0, 0)[0] != 1 || f(9, 0)[0] != 1 {
		t.Error("first phase wrong")
	}
	if f(10, 0)[0] != 2 || f(19, 59)[0] != 2 {
		t.Error("second phase wrong")
	}
	if f(20, 0)[0] != 1 {
		t.Error("cycle did not wrap")
	}
	if _, err := Cycle(0, []float64{1}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := Cycle(5); err == nil {
		t.Error("no phases accepted")
	}
	if _, err := Cycle(5, []float64{}); err == nil {
		t.Error("empty phase accepted")
	}
}

func TestStepAtProfile(t *testing.T) {
	f, err := StepAt(30, []float64{10}, []float64{20})
	if err != nil {
		t.Fatal(err)
	}
	if f(29, 599)[0] != 10 || f(30, 0)[0] != 20 {
		t.Error("step boundary wrong")
	}
	if _, err := StepAt(-1, []float64{1}, []float64{2}); err == nil {
		t.Error("negative change slot accepted")
	}
}

// TestProfile: the named profiles over a spec's two rate levels, and the
// rejection of an unknown name.
func TestProfile(t *testing.T) {
	spec, err := WordCount()
	if err != nil {
		t.Fatal(err)
	}
	hi, lo := spec.HighRates[0], spec.LowRates[0]
	for name, want := range map[string][4]float64{
		// offered rate at slots 0, 2, 3 and 6 with a period of 3
		"high":  {hi, hi, hi, hi},
		"low":   {lo, lo, lo, lo},
		"cycle": {hi, hi, lo, hi},
		"step":  {lo, lo, hi, hi},
	} {
		f, err := Profile(spec, name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, slot := range []int{0, 2, 3, 6} {
			if got := f(slot, 0)[0]; got != want[i] {
				t.Errorf("%s at slot %d = %v, want %v", name, slot, got, want[i])
			}
		}
	}
	if _, err := Profile(spec, "", 3); err == nil || err.Error() != `workload: unknown profile ""` {
		t.Errorf("empty profile name: %v", err)
	}
}

func TestPhaseBoundaries(t *testing.T) {
	f, err := Cycle(5, []float64{1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	got := PhaseBoundaries(f, 14)
	want := []int{0, 5, 10}
	if len(got) != len(want) {
		t.Fatalf("PhaseBoundaries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PhaseBoundaries = %v, want %v", got, want)
		}
	}
	c, err := Constant([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if got := PhaseBoundaries(c, 10); len(got) != 1 || got[0] != 0 {
		t.Errorf("constant boundaries = %v", got)
	}
}

// TestPeakRates: the per-source peak is taken per source, over the
// first slots only, and rates beyond the source count are ignored.
func TestPeakRates(t *testing.T) {
	f, err := Cycle(2, []float64{5, 1, 9}, []float64{2, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := PeakRates(f, 2, 4); !reflect.DeepEqual(got, []float64{5, 7}) {
		t.Errorf("PeakRates over 4 slots = %v, want [5 7]", got)
	}
	if got := PeakRates(f, 2, 2); !reflect.DeepEqual(got, []float64{5, 1}) {
		t.Errorf("PeakRates over the first phase = %v, want [5 1]", got)
	}
	if got := PeakRates(f, 2, 0); !reflect.DeepEqual(got, []float64{0, 0}) {
		t.Errorf("PeakRates over no slots = %v, want zeros", got)
	}
}

func TestSpecValidateCatchesCorruption(t *testing.T) {
	s, err := WordCount()
	if err != nil {
		t.Fatal(err)
	}
	s.Models = s.Models[:1]
	if err := s.Validate(); err == nil {
		t.Error("model count mismatch accepted")
	}
	s2, err := WordCount()
	if err != nil {
		t.Fatal(err)
	}
	s2.HighRates = []float64{1, 2}
	if err := s2.Validate(); err == nil {
		t.Error("rate count mismatch accepted")
	}
	s3 := &Spec{Name: "x"}
	if err := s3.Validate(); err == nil {
		t.Error("nil graph accepted")
	}
	s4, err := WordCount()
	if err != nil {
		t.Fatal(err)
	}
	s4.MaxTasks = 0
	if err := s4.Validate(); err == nil {
		t.Error("zero MaxTasks accepted")
	}
	for _, ymax := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		s5, err := WordCount()
		if err != nil {
			t.Fatal(err)
		}
		s5.YMax = ymax
		if err := s5.Validate(); err == nil {
			t.Errorf("YMax %v accepted", ymax)
		}
	}
}

func TestGraphShapes(t *testing.T) {
	wc, err := WordCount()
	if err != nil {
		t.Fatal(err)
	}
	if wc.Graph.KindOf(wc.Graph.Sources()[0]) != dag.Source {
		t.Error("wordcount source kind wrong")
	}
	if wc.Graph.OperatorName(0) != "map" || wc.Graph.OperatorName(1) != "shuffle" {
		t.Errorf("wordcount operator names: %s, %s", wc.Graph.OperatorName(0), wc.Graph.OperatorName(1))
	}
	jn, err := Join()
	if err != nil {
		t.Fatal(err)
	}
	if jn.Graph.NumSources() != 2 {
		t.Errorf("join sources = %d", jn.Graph.NumSources())
	}
}
