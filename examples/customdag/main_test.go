package main

import (
	"bytes"
	"testing"

	"dragster"
	"dragster/internal/streamsim"
)

// TestCustomDAGSmoke runs a scaled-down version of what main() does — the
// hand-wired two-source join application driven slot by slot through the
// low-level public API, plus the history-database warm start — so the
// example cannot rot away from that API.
func TestCustomDAGSmoke(t *testing.T) {
	b := dragster.NewGraphBuilder()
	clicks := b.Source("clicks")
	orders := b.Source("orders")
	join := b.Operator("join")
	enrich := b.Operator("enrich")
	sink := b.Sink("sink")
	b.Edge(clicks, join, nil, 1)
	b.Edge(orders, join, nil, 1)
	minRate, err := dragster.NewMinRate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b.Edge(join, enrich, minRate, 1)
	tanh, err := dragster.NewTanh(60000, 1.0/30000)
	if err != nil {
		t.Fatal(err)
	}
	b.Edge(enrich, sink, tanh, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	k8s := dragster.NewKubeCluster()
	if err := k8s.AddNodes("node", 8, dragster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		t.Fatal(err)
	}
	session, err := dragster.NewFlinkSession(k8s, dragster.DefaultFlinkOptions())
	if err != nil {
		t.Fatal(err)
	}
	joinCurve, err := streamsim.NewPowerCurve(7000, 0.85, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	enrichInner, err := streamsim.NewPowerCurve(8000, 0.9, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	enrichCurve, err := streamsim.NewSaturatingCurve(enrichInner, 45000)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := dragster.NewEngine(dragster.EngineConfig{
		Graph:  g,
		Models: []dragster.CapacityModel{joinCurve, enrichCurve},
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := session.SubmitJob("clickstream", g, engine, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}

	mon, err := dragster.NewMonitor(job)
	if err != nil {
		t.Fatal(err)
	}
	db := dragster.NewHistoryDB()
	ctrl, err := dragster.NewController(dragster.ControllerConfig{
		Graph:    g,
		Method:   dragster.SaddlePoint,
		YMax:     80000,
		NoiseVar: 4e6,
		DB:       db,
	})
	if err != nil {
		t.Fatal(err)
	}

	rates := []float64{30000, 24000}
	for slot := 0; slot < 5; slot++ {
		rep, err := job.RunSlot(60, func(int) []float64 { return rates })
		if err != nil {
			t.Fatal(err)
		}
		if rep.Throughput < 0 {
			t.Fatalf("slot %d: negative throughput %v", slot, rep.Throughput)
		}
		snap, err := mon.Collect()
		if err != nil {
			t.Fatal(err)
		}
		desired, err := ctrl.Decide(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Rescale(desired); err != nil {
			t.Fatal(err)
		}
	}
	if k8s.Cost() <= 0 {
		t.Errorf("cluster cost = %v, want > 0", k8s.Cost())
	}
	if db.Len() == 0 {
		t.Error("history database stayed empty")
	}

	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := dragster.NewHistoryDB()
	if err := db2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	warm, err := dragster.NewController(dragster.ControllerConfig{
		Graph:    g,
		Method:   dragster.SaddlePoint,
		YMax:     80000,
		NoiseVar: 4e6,
		History:  db2.Drain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Searcher(0).Observations(); got == 0 {
		t.Error("warm-started controller holds no GP observations")
	}
}
