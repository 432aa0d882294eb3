package fleet

import (
	"strings"
	"testing"

	"dragster/internal/workload"
)

func wcJob(t *testing.T, name string, arrive, depart int, initial []int) JobSpec {
	t.Helper()
	wc := mustSpec(t, workload.WordCount)
	return JobSpec{
		Name: name, Workload: wc, Rates: constRates(t, wc.LowRates),
		ArriveSlot: arrive, DepartSlot: depart, InitialTasks: initial,
	}
}

func groupJob(t *testing.T, name string, arrive int) JobSpec {
	t.Helper()
	g := mustSpec(t, workload.Group)
	return JobSpec{Name: name, Workload: g, Rates: constRates(t, g.LowRates), ArriveSlot: arrive}
}

// admissionOutcomes returns the recorded admission events for one job as
// "outcome@round" strings, in order.
func admissionOutcomes(res *Result, job string) []string {
	var out []string
	for _, ev := range res.Admissions {
		if ev.Job == job {
			out = append(out, ev.Outcome+"@"+itoa(ev.Round))
		}
	}
	return out
}

func jobByName(res *Result, name string) *JobResult {
	for i := range res.Jobs {
		if res.Jobs[i].Name == name {
			return &res.Jobs[i]
		}
	}
	return nil
}

// TestFleetAdmissionEdges drives the admission controller through its
// edge cases as one table. Admissibility is floor-based (running jobs
// above their floor are shrunk by the rebalance that follows), so each
// case engineers blockage through admission grants — max(floor,
// ΣInitialTasks) — against a tight budget.
func TestFleetAdmissionEdges(t *testing.T) {
	cases := []struct {
		name     string
		budget   int
		maxQueue int
		jobs     func(t *testing.T) []JobSpec
		mutate   func(t *testing.T, m *Manager, r int)
		check    func(t *testing.T, res *Result)
	}{
		{
			// The front of the queue asks for more than the budget minus
			// the incumbent's floor; a smaller job behind it COULD fit but
			// must not jump the queue. When the incumbent departs, both are
			// admitted in FIFO order in the same round.
			name:   "head of line blocking",
			budget: 4,
			jobs: func(t *testing.T) []JobSpec {
				return []JobSpec{
					wcJob(t, "incumbent", 0, 4, nil),   // floor 2, departs round 4
					wcJob(t, "big", 1, 0, []int{2, 2}), // grant 4: blocked while incumbent runs
					groupJob(t, "small", 2),            // grant 1: would fit, must wait behind big
				}
			},
			check: func(t *testing.T, res *Result) {
				big, small := jobByName(res, "big"), jobByName(res, "small")
				if big.AdmitSlot != 4 {
					t.Errorf("big admitted at %d, want 4 (incumbent's departure)", big.AdmitSlot)
				}
				if small.AdmitSlot != 4 {
					t.Errorf("small admitted at %d, want 4 (released with the head)", small.AdmitSlot)
				}
				if big.QueuedRounds == 0 || small.QueuedRounds == 0 {
					t.Errorf("queued rounds big=%d small=%d, want both > 0", big.QueuedRounds, small.QueuedRounds)
				}
			},
		},
		{
			// A floor that exceeds the whole budget can never fit: rejected
			// at arrival with a reason, never queued. A job that merely has
			// to wait is queued, not rejected.
			name:   "infeasible floor rejects, tight fit queues",
			budget: 1,
			jobs: func(t *testing.T) []JobSpec {
				return []JobSpec{
					groupJob(t, "incumbent", 0),   // floor 1: fills the budget
					wcJob(t, "toobig", 1, 0, nil), // floor 2 > budget 1: reject
					groupJob(t, "waiter", 2),      // floor 1: queues behind the incumbent
				}
			},
			check: func(t *testing.T, res *Result) {
				toobig := jobByName(res, "toobig")
				if toobig.Status != StatusRejected {
					t.Errorf("toobig status %v, want rejected", toobig.Status)
				}
				got := admissionOutcomes(res, "toobig")
				if len(got) != 1 || !strings.HasPrefix(got[0], "rejected@1") {
					t.Errorf("toobig outcomes %v, want [rejected@1]", got)
				}
				for _, ev := range res.Admissions {
					if ev.Job == "toobig" && !strings.Contains(ev.Reason, "floor") {
						t.Errorf("toobig rejection reason %q, want a floor/budget reason", ev.Reason)
					}
				}
				waiter := jobByName(res, "waiter")
				if waiter.Status != StatusQueued {
					t.Errorf("waiter status %v, want queued (waiting, not rejected)", waiter.Status)
				}
				if got := admissionOutcomes(res, "waiter"); len(got) != 1 || !strings.HasPrefix(got[0], "queued@") {
					t.Errorf("waiter outcomes %v, want a single queued event", got)
				}
			},
		},
		{
			// Queue overflow rejects the newcomer, never evicts the tenant
			// already waiting.
			name:     "queue overflow rejects newcomer",
			budget:   4,
			maxQueue: 1,
			jobs: func(t *testing.T) []JobSpec {
				return []JobSpec{
					wcJob(t, "incumbent", 0, 0, nil),        // floor 2, never departs
					wcJob(t, "first-in", 1, 0, []int{2, 2}), // grant 4: blocked forever
					groupJob(t, "overflow", 2),              // queue already full
				}
			},
			check: func(t *testing.T, res *Result) {
				if res.PeakQueueDepth != 1 {
					t.Errorf("peak queue depth %d, want 1 (MaxQueue)", res.PeakQueueDepth)
				}
				overflow := jobByName(res, "overflow")
				if overflow.Status != StatusRejected {
					t.Errorf("overflow status %v, want rejected (queue full)", overflow.Status)
				}
				for _, ev := range res.Admissions {
					if ev.Job == "overflow" && ev.Outcome == "rejected" &&
						!strings.Contains(ev.Reason, "queue full") {
						t.Errorf("overflow rejection reason %q", ev.Reason)
					}
				}
				if first := jobByName(res, "first-in"); first.Status != StatusQueued {
					t.Errorf("first-in status %v, want still queued", first.Status)
				}
			},
		},
		{
			// A kill that lands while the job is still queued departs it
			// without ever building a stack, and unblocks the queue behind
			// it the same round.
			name:   "cancel while queued",
			budget: 4,
			jobs: func(t *testing.T) []JobSpec {
				return []JobSpec{
					wcJob(t, "incumbent", 0, 0, nil),      // floor 2, never departs
					wcJob(t, "doomed", 1, 0, []int{2, 2}), // grant 4: blocked at the head
					groupJob(t, "heir", 2),                // grant 1: fits once doomed is gone
				}
			},
			mutate: func(t *testing.T, m *Manager, r int) {
				if r == 3 {
					if err := m.Kill("doomed"); err != nil {
						t.Fatalf("kill doomed: %v", err)
					}
				}
			},
			check: func(t *testing.T, res *Result) {
				doomed := jobByName(res, "doomed")
				if doomed.Status != StatusDeparted {
					t.Errorf("doomed status %v, want departed", doomed.Status)
				}
				if doomed.AdmitSlot != -1 {
					t.Errorf("doomed admit slot %d, want -1 (never admitted)", doomed.AdmitSlot)
				}
				if len(doomed.Rounds) != 0 {
					t.Errorf("doomed ran %d rounds while queued", len(doomed.Rounds))
				}
				heir := jobByName(res, "heir")
				if heir.Status != StatusRunning || heir.AdmitSlot != 3 {
					t.Errorf("heir status %v admit %d, want running from round 3 (the kill unblocked it)",
						heir.Status, heir.AdmitSlot)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Jobs:            tc.jobs(t),
				Slots:           10,
				SlotSeconds:     60,
				Seed:            5,
				TotalTaskBudget: tc.budget,
				MaxQueue:        tc.maxQueue,
			}
			m, err := New(cfg)
			if err != nil {
				t.Fatalf("fleet.New: %v", err)
			}
			for !m.Done() {
				if tc.mutate != nil {
					tc.mutate(t, m, m.Round())
				}
				if err := m.Step(); err != nil {
					t.Fatalf("step %d: %v", m.Round(), err)
				}
			}
			tc.check(t, m.Result())
		})
	}
}

// TestFleetDuplicateNames: duplicate tenant names are refused at both
// construction and runtime submission — a name is the identity events,
// checkpoints, and per-job metrics all key on.
func TestFleetDuplicateNames(t *testing.T) {
	jobs := []JobSpec{
		wcJob(t, "same", 0, 0, nil),
		groupJob(t, "same", 2),
	}
	cfg := Config{Jobs: jobs, Slots: 4, SlotSeconds: 60, Seed: 5, TotalTaskBudget: 8}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate config names: err=%v, want duplicate error", err)
	}

	cfg.Jobs = []JobSpec{wcJob(t, "solo", 0, 0, nil)}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(groupJob(t, "solo", 0)); err == nil {
		t.Fatal("dynamic submission reusing a live name accepted")
	}
	// Still refused after the original departs: names are forever (the
	// trace, the archive, and checkpoint replay all reference them).
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if err := m.Kill("solo"); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(groupJob(t, "solo", 0)); err == nil {
		t.Fatal("dynamic submission reusing a departed name accepted")
	}
}
