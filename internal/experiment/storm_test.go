package experiment

import (
	"testing"

	"dragster/internal/workload"
)

// TestDragsterOnStorm runs the full Dragster loop on the Storm substrate
// (§3.2: rebalancing instead of savepoints) and checks it converges like
// the Flink runs, but with cheaper reconfigurations.
func TestDragsterOnStorm(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Scenario{
		Spec:         spec,
		Rates:        rates,
		Slots:        20,
		SlotSeconds:  60,
		Seed:         6,
		StreamEngine: "storm",
	}, DragsterSaddle())
	if err != nil {
		t.Fatal(err)
	}
	conv, err := ConvergenceMinutes(res)
	if err != nil {
		t.Fatal(err)
	}
	if conv < 0 {
		t.Fatal("dragster on storm never converged")
	}
	// Reconfiguration slots pause exactly the 10 s rebalance, never
	// Flink's 30 s (and the search does reconfigure).
	rebalanced := false
	for _, tr := range res.Trace {
		if tr.PausedSeconds > 10 {
			t.Errorf("slot %d paused %ds — storm rebalance should cost ≤10 s", tr.Slot, tr.PausedSeconds)
		}
		rebalanced = rebalanced || tr.PausedSeconds == 10
	}
	if !rebalanced {
		t.Error("no slot paused for a 10 s rebalance")
	}
}

// TestStormCheaperReconfiguration quantifies the §3.1 remark that a
// faster reconfiguration mechanism loses less processing time: same
// policy, same workload, same seed — the Storm run processes at least as
// many tuples through the search phase.
func TestStormCheaperReconfiguration(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	run := func(engine string) float64 {
		res, err := Run(Scenario{
			Spec:         spec,
			Rates:        rates,
			Slots:        12,
			SlotSeconds:  60,
			Seed:         6,
			StreamEngine: engine,
		}, DragsterSaddle())
		if err != nil {
			t.Fatal(err)
		}
		return TotalProcessed(res)
	}
	flinkTuples := run("flink")
	stormTuples := run("storm")
	if stormTuples < flinkTuples {
		t.Errorf("storm (%0.f) processed fewer tuples than flink (%0.f) despite cheaper rebalance", stormTuples, flinkTuples)
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	spec := wordcount(t)
	rates, err := workload.Constant(spec.HighRates)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Scenario{
		Spec: spec, Rates: rates, Slots: 1, StreamEngine: "heron",
	}, DragsterSaddle()); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := Run(Scenario{
		Spec: spec, Rates: rates, Slots: 1, StreamEngine: "storm", VerticalScaling: true,
	}, DragsterSaddle()); err == nil {
		t.Error("storm + vertical scaling accepted")
	}
}
