package planner

import (
	"bytes"
	"reflect"
	"testing"

	"dragster/internal/workload"
)

func wordcountConfig(t *testing.T, seed int64) Config {
	t.Helper()
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatalf("WordCount: %v", err)
	}
	return Config{Spec: spec, TargetRates: spec.HighRates, Seed: seed}
}

// Same seed + DAG → byte-identical Plan. This is the property fleet
// replay depends on: the admission controller rebuilds the plan from the
// journaled seed and must land on the same digest.
func TestBuildDeterministic(t *testing.T) {
	a, err := Build(wordcountConfig(t, 42))
	if err != nil {
		t.Fatalf("Build a: %v", err)
	}
	b, err := Build(wordcountConfig(t, 42))
	if err != nil {
		t.Fatalf("Build b: %v", err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("same config produced different plans:\n%s\n%s", a, b)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digest mismatch: %016x vs %016x", a.Digest(), b.Digest())
	}

	c, err := Build(wordcountConfig(t, 43))
	if err != nil {
		t.Fatalf("Build c: %v", err)
	}
	if bytes.Equal(a.Encode(), c.Encode()) {
		t.Fatal("different seeds produced byte-identical plans (noise not seeded?)")
	}
}

func TestProbeBudgetBound(t *testing.T) {
	cfg := wordcountConfig(t, 5)
	p, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if limit := probesPerOperator * cfg.Spec.Graph.NumOperators(); len(p.Probes) > limit {
		t.Fatalf("budget %d, ran %d probes", limit, len(p.Probes))
	}
	// The schedule stops hard at the budget even mid-operator.
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	probes, err := runSchedule(&cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 3 {
		t.Fatalf("budget 3, ran %d probes", len(probes))
	}
}

func TestProbeScheduleShape(t *testing.T) {
	p, err := Build(wordcountConfig(t, 11))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Operators visited in dense-index order, task counts ascending
	// within an operator, and at least one saturated probe for the first
	// operator (sources feed it directly, so small n must saturate).
	lastOp, lastN, sawSaturated := -1, 0, false
	for _, pr := range p.Probes {
		if pr.OpIndex < lastOp {
			t.Fatalf("probe order regressed to operator %d after %d", pr.OpIndex, lastOp)
		}
		if pr.OpIndex > lastOp {
			lastOp, lastN = pr.OpIndex, 0
		}
		if pr.Tasks <= lastN {
			t.Fatalf("op %d: task counts not ascending (%d after %d)", pr.OpIndex, pr.Tasks, lastN)
		}
		lastN = pr.Tasks
		if pr.OpIndex == 0 && pr.Saturated {
			sawSaturated = true
		}
		if pr.Saturated && pr.Capacity <= 0 {
			t.Fatalf("saturated probe %s n=%d recorded no capacity", pr.Operator, pr.Tasks)
		}
		if !pr.Saturated && pr.Capacity != 0 {
			t.Fatalf("unsaturated probe %s n=%d recorded capacity %f", pr.Operator, pr.Tasks, pr.Capacity)
		}
	}
	if !sawSaturated {
		t.Fatal("no saturated probe on the source-fed operator")
	}
}

func TestProbePoints(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{4, []int{1, 2, 3, 4}},
		{6, []int{1, 2, 3, 5, 6}},
		{10, []int{1, 2, 3, 5, 7, 9, 10}},
	}
	for _, c := range cases {
		if got := probePoints(c.max); !reflect.DeepEqual(got, c.want) {
			t.Errorf("probePoints(%d) = %v, want %v", c.max, got, c.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	spec, err := workload.WordCount()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil spec", func(c *Config) { c.Spec = nil }},
		{"rate count", func(c *Config) { c.TargetRates = []float64{1, 2} }},
		{"negative rate", func(c *Config) { c.TargetRates = []float64{-1} }},
	}
	for _, c := range cases {
		cfg := Config{Spec: spec, TargetRates: spec.HighRates, Seed: 1}
		c.mut(&cfg)
		if _, err := Build(cfg); err == nil {
			t.Errorf("%s: Build accepted invalid config", c.name)
		}
	}
}

// TestPlanDigestsPinned pins the plan digests of three workloads at two
// seeds. Probes reuse one engine and one RNG, reset and reseeded before
// each run, and the curve fits score one Gram per length scale; both
// must reproduce the plans of a fresh engine and RNG per probe and a
// Gram per grid point bit for bit, and these digests are those plans'.
func TestPlanDigestsPinned(t *testing.T) {
	want := map[string][2]string{
		"yahoo":     {"155526bd92a95724", "2c6926601d03de18"},
		"wordcount": {"8ece94f5d57bad40", "0702634eb1104363"},
		"join":      {"4a78f527edd45f1a", "21611947c35e0aaa"},
	}
	for _, name := range []string{"yahoo", "wordcount", "join"} {
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for k, seed := range []int64{1, 7} {
			p, err := Build(Config{Spec: spec, TargetRates: spec.HighRates, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if got := p.DigestHex(); got != want[name][k] {
				t.Errorf("%s seed %d: digest %s, want %s", name, seed, got, want[name][k])
			}
		}
	}
}
