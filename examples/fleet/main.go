// Fleet quickstart: run three tenants — one hot WordCount and two
// lightly loaded Group jobs — on one shared simulated cluster under a
// global 20-task budget, and compare the dual-price budget arbiter
// against a static equal split.
//
// The dual-price rule reads each tenant's OSP shadow price (the dual λ
// of its long-term buffer constraint): a starved job carries a positive
// price and outbids satisfied tenants for the surplus, while satisfied
// tenants are ratcheted down toward their measured need. The result is
// less money spent AND less regret than splitting the budget evenly.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"dragster"
)

func main() {
	for _, arb := range []dragster.FleetArbitration{dragster.FleetDualPrice, dragster.FleetEqualSplit} {
		score, err := runFleet(arb, 20, 300)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] aggregate regret %.0f tuples/s·slot, spend $%.4f\n",
			score.Arbitration, score.AggregateRegret, score.AggregateCost)
		for _, j := range score.Jobs {
			fmt.Printf("    %-8s (%s): regret %.0f, $%.4f over %d rounds\n",
				j.Name, j.Workload, j.Regret, j.Cost, j.Rounds)
		}
	}
}

func runFleet(arb dragster.FleetArbitration, slots, slotSeconds int) (*dragster.FleetScore, error) {
	wc, err := dragster.WordCountWorkload()
	if err != nil {
		return nil, err
	}
	g1, err := dragster.GroupWorkload()
	if err != nil {
		return nil, err
	}
	g2, err := dragster.GroupWorkload()
	if err != nil {
		return nil, err
	}
	hot, err := dragster.ConstantRates(wc.HighRates)
	if err != nil {
		return nil, err
	}
	lightA, err := dragster.ConstantRates([]float64{3000})
	if err != nil {
		return nil, err
	}
	lightB, err := dragster.ConstantRates([]float64{4000})
	if err != nil {
		return nil, err
	}
	return dragster.RunFleetScenario(dragster.FleetConfig{
		Jobs: []dragster.FleetJobSpec{
			{Name: "hot", Workload: wc, Rates: hot},
			{Name: "light-a", Workload: g1, Rates: lightA},
			{Name: "light-b", Workload: g2, Rates: lightB},
		},
		Slots:           slots,
		SlotSeconds:     slotSeconds,
		Seed:            1,
		TotalTaskBudget: 20,
		Arbitration:     arb,
		RebalanceEvery:  2,
		MaxGrowTasks:    6,
	})
}
