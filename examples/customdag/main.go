// Custom DAG, wired by hand: this example skips the experiment harness and
// shows the low-level public API — build your own application graph with
// mixed throughput-function forms (Eq. 2a/2b/2c), stand up the simulated
// Kubernetes cluster and Flink session, attach the Job Monitor, and drive
// the Dragster controller slot by slot. It also persists the history
// database and warm-starts a second controller from it.
//
//	go run ./examples/customdag
package main

import (
	"bytes"
	"fmt"
	"log"

	"dragster"
	"dragster/internal/streamsim"
)

func main() {
	// ---- 1. The application: two sources joined, then enriched ----
	//
	//   clicks ──┐
	//            ├─ join ── enrich(tanh) ── sink
	//   orders ──┘
	b := dragster.NewGraphBuilder()
	clicks := b.Source("clicks")
	orders := b.Source("orders")
	join := b.Operator("join")
	enrich := b.Operator("enrich")
	sink := b.Sink("sink")

	b.Edge(clicks, join, nil, 1)
	b.Edge(orders, join, nil, 1)
	minRate, err := dragster.NewMinRate(1, 1) // Eq. 2b: one click per order
	if err != nil {
		log.Fatal(err)
	}
	b.Edge(join, enrich, minRate, 1)
	// Eq. 2c: the enrichment saturates against an external dictionary.
	tanh, err := dragster.NewTanh(60000, 1.0/30000)
	if err != nil {
		log.Fatal(err)
	}
	b.Edge(enrich, sink, tanh, 1)

	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built DAG: %d sources, %d operators\n", g.NumSources(), g.NumOperators())

	// ---- 2. The substrate: Kubernetes + Flink + dataflow simulator ----
	k8s := dragster.NewKubeCluster()
	if err := k8s.AddNodes("node", 8, dragster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		log.Fatal(err)
	}
	session, err := dragster.NewFlinkSession(k8s, dragster.DefaultFlinkOptions())
	if err != nil {
		log.Fatal(err)
	}
	// Hidden ground truth: the join scales sub-linearly, the enrichment
	// is throttled by the external service.
	joinCurve, err := streamsim.NewPowerCurve(7000, 0.85, 0.03)
	if err != nil {
		log.Fatal(err)
	}
	enrichInner, err := streamsim.NewPowerCurve(8000, 0.9, 0.02)
	if err != nil {
		log.Fatal(err)
	}
	enrichCurve, err := streamsim.NewSaturatingCurve(enrichInner, 45000)
	if err != nil {
		log.Fatal(err)
	}
	engine, err := dragster.NewEngine(dragster.EngineConfig{
		Graph:  g,
		Models: []dragster.CapacityModel{joinCurve, enrichCurve},
	})
	if err != nil {
		log.Fatal(err)
	}
	job, err := session.SubmitJob("clickstream", g, engine, []int{1, 1})
	if err != nil {
		log.Fatal(err)
	}

	// ---- 3. Monitor + controller with a persistent history database ----
	mon, err := dragster.NewMonitor(job)
	if err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}

	// ---- 4. The control loop: observe → decide → rescale ----
	rates := []float64{30000, 24000} // orders are the slow side
	fmt.Println("\nslot  tasks      sink t/s")
	for slot := 0; slot < 12; slot++ {
		rep, err := job.RunSlot(600, func(int) []float64 { return rates })
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%4d  %-9s  %8.0f\n", slot, fmt.Sprint(job.EffectiveParallelism()), rep.Throughput)
		snap, err := mon.Collect()
		if err != nil {
			log.Fatal(err)
		}
		desired, err := ctrl.Decide(snap)
		if err != nil {
			log.Fatal(err)
		}
		if err := job.Rescale(desired); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ncluster cost so far: $%.2f; history records: %d\n", k8s.Cost(), db.Len())

	// ---- 5. Persistence: snapshot the database, warm-start a clone ----
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		log.Fatal(err)
	}
	db2 := dragster.NewHistoryDB()
	if err := db2.Restore(&buf); err != nil {
		log.Fatal(err)
	}
	warm, err := dragster.NewController(dragster.ControllerConfig{
		Graph:    g,
		Method:   dragster.SaddlePoint,
		YMax:     80000,
		NoiseVar: 4e6,
		History:  db2.Drain(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm-started controller holds %d GP observations for %q\n",
		warm.Searcher(0).Observations(), g.OperatorName(0))
}
