package dag

import (
	"math"
	"testing"
)

func TestNewLearnedLinearValidation(t *testing.T) {
	for _, prior := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewLearnedLinear(prior); err == nil {
			t.Errorf("prior %v accepted", prior)
		}
	}
}

func TestLearnedLinearStartsAtPrior(t *testing.T) {
	l, err := NewLearnedLinear(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if l.K() != 1.5 {
		t.Errorf("initial K = %v, want prior 1.5", l.K())
	}
	if l.Samples() != 0 {
		t.Errorf("Samples = %d", l.Samples())
	}
	if l.PredictionGap() != 1 {
		t.Errorf("initial PredictionGap = %v, want 1", l.PredictionGap())
	}
	if got := l.Eval([]float64{10}); got != 15 {
		t.Errorf("Eval = %v, want 15", got)
	}
}

func TestLearnedLinearConvergesToTruth(t *testing.T) {
	l, err := NewLearnedLinear(0.5)
	if err != nil {
		t.Fatal(err)
	}
	const trueK = 2.0
	for i := 0; i < 50; i++ {
		in := 100.0 + float64(i)
		if err := l.ObserveRates(in, trueK*in); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(l.K()-trueK) > 0.05 {
		t.Errorf("K = %v, want ≈%v", l.K(), trueK)
	}
	if l.PredictionGap() > 0.02 {
		t.Errorf("PredictionGap = %v, want decayed", l.PredictionGap())
	}
	if l.Samples() != 50 {
		t.Errorf("Samples = %d", l.Samples())
	}
}

func TestLearnedLinearGapDecaysFasterThanSqrtT(t *testing.T) {
	// The Theorem 2 condition: prediction error o(1/√T).
	l, err := NewLearnedLinear(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		if err := l.ObserveRates(1, 2); err != nil {
			t.Fatal(err)
		}
		if g := l.PredictionGap(); g > 1/math.Sqrt(float64(i)) {
			t.Fatalf("gap %v at n=%d above 1/√n", g, i)
		}
	}
}

func TestLearnedLinearRejectsBadSamples(t *testing.T) {
	l, err := NewLearnedLinear(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range [][2]float64{{0, 1}, {-1, 1}, {1, -1}, {math.NaN(), 1}, {1, math.Inf(1)}} {
		if err := l.ObserveRates(s[0], s[1]); err == nil {
			t.Errorf("sample %v accepted", s)
		}
	}
	if l.Samples() != 0 {
		t.Errorf("bad samples were counted: %d", l.Samples())
	}
}

func TestLearnedLinearInGraph(t *testing.T) {
	l, err := NewLearnedLinear(1)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	src := b.Source("s")
	op := b.Operator("op")
	snk := b.Sink("k")
	b.Edge(src, op, nil, 1)
	b.Edge(op, snk, l, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	th, err := g.Throughput([]float64{100}, []float64{1e9})
	if err != nil {
		t.Fatal(err)
	}
	if th != 100 {
		t.Errorf("throughput with prior k=1: %v", th)
	}
	// Learning updates flow through subsequent evaluations (the graph
	// holds the pointer).
	for i := 0; i < 20; i++ {
		if err := l.ObserveRates(100, 300); err != nil {
			t.Fatal(err)
		}
	}
	th, err = g.Throughput([]float64{100}, []float64{1e9})
	if err != nil {
		t.Fatal(err)
	}
	if th < 280 {
		t.Errorf("throughput after learning k≈3: %v", th)
	}
	// Gradient path exercises AddVJP with the learned k.
	_, grad, err := g.Gradient([]float64{100}, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if grad[0] <= 0 {
		t.Errorf("gradient with learned h = %v", grad[0])
	}
}

func TestLearnedLinearPanicsOnWrongArity(t *testing.T) {
	l, err := NewLearnedLinear(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("two-input Eval did not panic")
		}
	}()
	l.Eval([]float64{1, 2})
}
