package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dragster/internal/store"
)

// warmRecords returns n capacity records per operator of the chain,
// grouped by operator ("map" first), with repeated task counts so some
// GP rows merge.
func warmRecords(n int) []store.Record {
	var recs []store.Record
	for _, op := range []string{"map", "shuffle"} {
		for k := 0; k < n; k++ {
			tasks := 1 + (3*k+len(op))%7
			recs = append(recs, store.Record{
				Slot:        k,
				Operator:    op,
				Config:      []float64{float64(tasks)},
				CapacityObs: capCurve(tasks) * (1 + 0.01*float64(k%5-2)),
				Util:        0.8,
			})
		}
	}
	return recs
}

// searcherState renders everything a warm start leaves in a searcher:
// its sample count, the GP's rows (point, mean target) and the posterior
// at every candidate, bit for bit.
func searcherState(t *testing.T, c *Controller, i int) string {
	t.Helper()
	s := c.Searcher(i)
	xs, means := s.Regressor().Observations()
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d rows=%v means=%x\n", s.Observations(), xs, means)
	for k := 0; k < 10; k++ {
		mu, v, err := s.PosteriorAt(k)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%d: %x %x\n", k, math.Float64bits(mu), math.Float64bits(v))
	}
	return b.String()
}

// TestWarmStartInterleavedEqualsGrouped: History replays in one pass in
// slice order, so interleaving the operators' records leaves every
// searcher as the grouped records do — each searcher still sees its own
// records in order.
func TestWarmStartInterleavedEqualsGrouped(t *testing.T) {
	grouped := warmRecords(12)
	var interleaved []store.Record
	for k := 0; k < 12; k++ {
		interleaved = append(interleaved, grouped[12+k], grouped[k]) // shuffle's first
	}
	a := newController(t, func(cfg *Config) { cfg.History = grouped })
	b := newController(t, func(cfg *Config) { cfg.History = interleaved })
	for i := 0; i < 2; i++ {
		if a.Searcher(i).Observations() != 12 {
			t.Fatalf("operator %d replayed %d records, want 12", i, a.Searcher(i).Observations())
		}
		if got, want := searcherState(t, b, i), searcherState(t, a, i); got != want {
			t.Errorf("operator %d: interleaved history gives\n%s\ngrouped gives\n%s", i, got, want)
		}
	}
}

// TestWarmStartSkipsUnusableRecords: records of an operator the graph
// lacks, and records whose capacity sample is not positive, are skipped.
func TestWarmStartSkipsUnusableRecords(t *testing.T) {
	clean := warmRecords(4)
	var noisy []store.Record
	for _, r := range clean {
		noisy = append(noisy, r,
			store.Record{Operator: "nobody", Config: []float64{2}, CapacityObs: 500},
			store.Record{Operator: r.Operator, Config: []float64{3}, CapacityObs: 0},
			store.Record{Operator: r.Operator, Config: []float64{4}, CapacityObs: -10})
	}
	a := newController(t, func(cfg *Config) { cfg.History = clean })
	b := newController(t, func(cfg *Config) { cfg.History = noisy })
	for i := 0; i < 2; i++ {
		if got, want := searcherState(t, b, i), searcherState(t, a, i); got != want {
			t.Errorf("operator %d: history with unusable records gives\n%s\nclean history gives\n%s", i, got, want)
		}
	}
}

// TestWarmStartInvalidRecordErrors: a History record the GP cannot take
// makes New return an error naming it instead of panicking. The record
// comes first, so it meets an empty GP, which has no dimension of its
// own to check it against yet.
func TestWarmStartInvalidRecordErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  store.Record
	}{
		{"empty config", store.Record{Operator: "shuffle", CapacityObs: 100}},
		{"wrong dimension", store.Record{Operator: "shuffle", Config: []float64{2, 500}, CapacityObs: 100}},
		{"non-finite sample", store.Record{Operator: "map", Config: []float64{2}, CapacityObs: math.Inf(1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Graph:    chain(t),
				YMax:     1000,
				NoiseVar: 100,
				History:  append([]store.Record{tc.rec}, warmRecords(2)...),
			}
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "record 0") {
				t.Fatalf("New with an invalid history record: err = %v, want an error naming record 0", err)
			}
		})
	}
}
