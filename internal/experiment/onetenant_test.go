package experiment

import (
	"reflect"
	"testing"

	"dragster/internal/fleet"
	"dragster/internal/workload"
)

// fleetTenantSeedStride is the per-tenant seed stride of fleet.Manager:
// the tenant admitted at index i runs with seed Config.Seed + (i+1)·stride.
const fleetTenantSeedStride = 100003

// TestOneTenantFleetMatchesRun checks that the two drivers of
// internal/tenant agree: a one-job fleet under EqualSplit, seeded so its
// only tenant gets the run's seed, reproduces experiment.Run's tasks,
// steady and measured throughput in every round, so both charge each
// slot for the allocation that ran it. EqualSplit grants the lone tenant the whole
// fleet budget, so the run gets the same task budget and both controllers
// solve the same budgeted problem.
func TestOneTenantFleetMatchesRun(t *testing.T) {
	const (
		slots   = 40
		slotSec = 600
		seed    = 3
	)
	for _, mk := range []func() (*workload.Spec, error){workload.WordCount, workload.Yahoo} {
		spec, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec.Name, func(t *testing.T) {
			budget := spec.Graph.NumOperators() * spec.MaxTasks / 2
			rates, err := workload.StepAt(slots/2, spec.LowRates, spec.HighRates)
			if err != nil {
				t.Fatal(err)
			}
			run, err := Run(Scenario{
				Spec:        spec,
				Rates:       rates,
				Slots:       slots,
				SlotSeconds: slotSec,
				Seed:        seed,
				TaskBudget:  budget,
			}, DragsterSaddle())
			if err != nil {
				t.Fatal(err)
			}
			m, err := fleet.New(fleet.Config{
				Jobs:            []fleet.JobSpec{{Name: spec.Name, Workload: spec, Rates: rates}},
				Slots:           slots,
				SlotSeconds:     slotSec,
				Seed:            seed - fleetTenantSeedStride,
				TotalTaskBudget: budget,
				Arbitration:     fleet.EqualSplit,
			})
			if err != nil {
				t.Fatal(err)
			}
			fr, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			rounds := fr.Jobs[0].Rounds
			if len(rounds) != len(run.Trace) {
				t.Fatalf("fleet ran %d rounds, Run %d slots", len(rounds), len(run.Trace))
			}
			for i, tr := range run.Trace {
				jr := rounds[i]
				if !reflect.DeepEqual(jr.Tasks, tr.Tasks) {
					t.Fatalf("round %d: fleet tasks %v, Run %v", i, jr.Tasks, tr.Tasks)
				}
				if jr.Steady != tr.SteadyThroughput {
					t.Fatalf("round %d: fleet steady %v tuples/s, Run %v", i, jr.Steady, tr.SteadyThroughput)
				}
				if jr.Measured != tr.MeasuredThroughput {
					t.Fatalf("round %d: fleet measured %v tuples/s, Run %v", i, jr.Measured, tr.MeasuredThroughput)
				}
			}
		})
	}
}
