package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dragster/internal/chaos"
	"dragster/internal/fleet/event"
	"dragster/internal/telemetry"
	"dragster/internal/workload"
)

func mustSpec(t *testing.T, f func() (*workload.Spec, error)) *workload.Spec {
	t.Helper()
	s, err := f()
	if err != nil {
		t.Fatalf("workload spec: %v", err)
	}
	return s
}

func constRates(t *testing.T, rates []float64) workload.RateFunc {
	t.Helper()
	f, err := workload.Constant(rates)
	if err != nil {
		t.Fatalf("rates: %v", err)
	}
	return f
}

// threeJobConfig is the canonical mixed fleet: two tenants from round 0
// (one of which departs mid-run) and a late arrival that warm-starts
// from the first tenant's history.
func threeJobConfig(t *testing.T) Config {
	t.Helper()
	wc := mustSpec(t, workload.WordCount)
	gr := mustSpec(t, workload.Group)
	wc2 := mustSpec(t, workload.WordCount)
	return Config{
		Jobs: []JobSpec{
			{Name: "alpha", Workload: wc, Rates: constRates(t, wc.LowRates)},
			{Name: "beta", Workload: gr, Rates: constRates(t, gr.LowRates), DepartSlot: 6},
			{Name: "gamma", Workload: wc2, Rates: constRates(t, wc2.LowRates), ArriveSlot: 4},
		},
		Slots:           9,
		SlotSeconds:     120,
		Seed:            7,
		TotalTaskBudget: 24,
	}
}

func resultFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	// The registry carries a mutex; compare its counter records and the
	// rest of the result via JSON.
	var cs strings.Builder
	for _, rec := range res.Metrics.Snapshot() {
		if rec.Kind == "counter" {
			fmt.Fprintf(&cs, "%s=%v ", rec.Name, rec.Value)
		}
	}
	res.Metrics = nil
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b) + "\n" + cs.String()
}

func runFleet(t *testing.T, cfg Config) *Result {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("fleet.Run: %v", err)
	}
	return res
}

// TestFleetTenantGPRowsBoundedByGrid: a tenant's per-operator GP holds
// one row per distinct task count, so however many rounds a tenant lives
// (and however much history warm-start replays into it) its decide cost
// is bounded by the MaxTasks grid, not by its age.
func TestFleetTenantGPRowsBoundedByGrid(t *testing.T) {
	m, err := New(threeJobConfig(t))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for round := 0; round < 8; round++ {
		if err := m.Step(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if len(m.running) == 0 {
		t.Fatal("no tenant running")
	}
	merged := false
	for _, js := range m.running {
		ctrl := js.t.Controller()
		for i := 0; i < js.spec.Workload.Graph.NumOperators(); i++ {
			reg := ctrl.Searcher(i).Regressor()
			if reg.Rows() > js.spec.Workload.MaxTasks {
				t.Errorf("job %s operator %d: %d GP rows over a %d-task grid",
					js.spec.Name, i, reg.Rows(), js.spec.Workload.MaxTasks)
			}
			merged = merged || reg.Len() > reg.Rows()
		}
	}
	if !merged {
		t.Error("no GP merged a repeated configuration; the test did not exercise row merging")
	}
}

// TestFleetDeterministic runs the same mixed fleet twice at one seed and
// requires byte-identical results — the parallel per-round decide fan-out
// must not leak scheduling order into any outcome.
func TestFleetDeterministic(t *testing.T) {
	a := resultFingerprint(t, runFleet(t, threeJobConfig(t)))
	b := resultFingerprint(t, runFleet(t, threeJobConfig(t)))
	if a != b {
		t.Fatalf("fleet run not deterministic at fixed seed:\nrun1: %.400s\nrun2: %.400s", a, b)
	}
}

// TestFleetTracedMatchesUntraced requires the traced (serial-decide) run
// to produce the same decisions as the untraced (parallel-decide) run:
// tracing must be observation, never behaviour.
func TestFleetTracedMatchesUntraced(t *testing.T) {
	plain := resultFingerprint(t, runFleet(t, threeJobConfig(t)))
	cfg := threeJobConfig(t)
	cfg.Tracer = telemetry.NewTracer()
	traced := resultFingerprint(t, runFleet(t, cfg))
	if plain != traced {
		t.Fatalf("traced run diverged from untraced run:\nplain:  %.400s\ntraced: %.400s", plain, traced)
	}
}

// TestFleetBudgetInvariant checks the tentpole guarantee: the fleet's
// effective Σ tasks never exceeds the global budget at any round.
func TestFleetBudgetInvariant(t *testing.T) {
	cfg := threeJobConfig(t)
	res := runFleet(t, cfg)
	if res.BudgetOverruns != 0 {
		t.Fatalf("got %d budget overruns, want 0", res.BudgetOverruns)
	}
	for r, total := range res.TotalTasksByRound {
		if total > cfg.TotalTaskBudget {
			t.Fatalf("round %d: Σ tasks %d > budget %d", r, total, cfg.TotalTaskBudget)
		}
	}
	if got := res.Metrics.CounterValue("fleet_budget_overruns"); got != 0 {
		t.Fatalf("fleet_budget_overruns counter = %d, want 0", got)
	}
}

// TestFleetRowsAccountTheSlotThatRan steps a fleet with planned,
// cold-floor and late planned tenants, and kills one mid-run: after each
// round, every row the round appended carries the per-operator
// parallelism of its tenant's slot report — the allocation that ran the
// slot, not the one the round's decision moved to.
func TestFleetRowsAccountTheSlotThatRan(t *testing.T) {
	m, err := New(plannedConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	planned := 0
	for !m.Done() {
		r := m.Round()
		if r == 4 {
			if err := m.Kill("cold"); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Step(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		rows := 0
		for _, js := range m.jobs {
			n := len(js.res.Rounds)
			if n == 0 || js.res.Rounds[n-1].Round != r {
				continue
			}
			rows++
			if js.t == nil {
				t.Fatalf("round %d: job %s has a row but no stack", r, js.spec.Name)
			}
			snap := js.t.Snapshot()
			if snap == nil {
				t.Fatalf("round %d: job %s has no snapshot", r, js.spec.Name)
			}
			jr := js.res.Rounds[n-1]
			for k, om := range snap.Operators {
				if jr.Tasks[k] != om.Tasks {
					t.Fatalf("round %d: job %s row tasks %v, snapshot operator %d ran %d",
						r, js.spec.Name, jr.Tasks, k, om.Tasks)
				}
			}
			if js.spec.PlanOnAdmit {
				planned++
			}
		}
		if rows != len(m.running) {
			t.Fatalf("round %d: %d rows for %d running tenants", r, rows, len(m.running))
		}
	}
	if planned == 0 {
		t.Fatal("no planned tenant row was checked")
	}
	if cold := jobByName(m.Result(), "cold"); cold == nil || cold.DepartSlot != 4 || len(cold.Rounds) != 4 {
		t.Fatalf("killed tenant: %+v", cold)
	}
}

// TestFleetLifecycle checks arrivals, departures, and per-job histories
// line up with the schedule.
func TestFleetLifecycle(t *testing.T) {
	res := runFleet(t, threeJobConfig(t))
	if len(res.Jobs) != 3 {
		t.Fatalf("got %d job results, want 3", len(res.Jobs))
	}
	byName := map[string]JobResult{}
	for _, jr := range res.Jobs {
		byName[jr.Name] = jr
	}
	alpha, beta, gamma := byName["alpha"], byName["beta"], byName["gamma"]
	if alpha.Status != StatusRunning || alpha.AdmitSlot != 0 || len(alpha.Rounds) != 9 {
		t.Fatalf("alpha: status %v admit %d rounds %d; want running/0/9", alpha.Status, alpha.AdmitSlot, len(alpha.Rounds))
	}
	if beta.Status != StatusDeparted || beta.DepartSlot != 6 || len(beta.Rounds) != 6 {
		t.Fatalf("beta: status %v depart %d rounds %d; want departed/6/6", beta.Status, beta.DepartSlot, len(beta.Rounds))
	}
	if gamma.Status != StatusRunning || gamma.AdmitSlot != 4 || len(gamma.Rounds) != 5 {
		t.Fatalf("gamma: status %v admit %d rounds %d; want running/4/5", gamma.Status, gamma.AdmitSlot, len(gamma.Rounds))
	}
	if alpha.Cost <= 0 || beta.Cost <= 0 || gamma.Cost <= 0 {
		t.Fatalf("every tenant should accrue attributed cost: %v %v %v", alpha.Cost, beta.Cost, gamma.Cost)
	}
	if res.ClusterCost <= 0 {
		t.Fatal("shared cluster accrued no cost")
	}
}

// TestFleetWarmArchiveBounded runs a WordCount tenant for more harvestable
// rounds than warm-start ever replays: the kind archive keeps only the
// last warmStartMaxPerOperator records per operator, the harvest counter
// still counts every record, and a later arrival is seeded with a full
// window per operator.
func TestFleetWarmArchiveBounded(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	const arrive = 60
	m, err := New(Config{
		Jobs: []JobSpec{
			{Name: "alpha", Workload: wc, Rates: constRates(t, wc.HighRates)},
			{Name: "late", Workload: wc, Rates: constRates(t, wc.HighRates), ArriveSlot: arrive},
		},
		Slots:           arrive + 1,
		SlotSeconds:     60,
		Seed:            3,
		TotalTaskBudget: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	ops := m.archive.byKind[fingerprint(wc)]
	if len(ops) != wc.Graph.NumOperators() {
		t.Fatalf("archive holds %d operators, want %d", len(ops), wc.Graph.NumOperators())
	}
	held := 0
	for name, recs := range ops {
		if len(recs) > warmStartMaxPerOperator {
			t.Errorf("operator %s holds %d records, want ≤ %d", name, len(recs), warmStartMaxPerOperator)
		}
		held += len(recs)
	}
	if harvested := res.Metrics.CounterValue("fleet_warmstart_harvested"); harvested <= int64(held) {
		t.Errorf("harvested %d records but the archive holds %d: the run never filled a window", harvested, held)
	}
	for _, jr := range res.Jobs {
		if jr.Name != "late" {
			continue
		}
		if want := warmStartMaxPerOperator * wc.Graph.NumOperators(); jr.WarmStartRecords != want {
			t.Errorf("late arrival seeded with %d records, want %d", jr.WarmStartRecords, want)
		}
		return
	}
	t.Fatal("no result for the late arrival")
}

// TestFleetArchiveHoldsNoReharvestedCopies: a tenant's history DB is
// seeded with archive records for core.New to replay, and those copies
// must not flow back into the archive at the tenant's first harvest. A
// duplicate in a partly filled window would make a later tenant's GP
// count one observation twice.
func TestFleetArchiveHoldsNoReharvestedCopies(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	m, err := New(Config{
		Jobs: []JobSpec{
			{Name: "a", Workload: wc, Rates: constRates(t, wc.HighRates)},
			{Name: "b", Workload: wc, Rates: constRates(t, wc.HighRates), ArriveSlot: 3},
		},
		Slots:           6,
		SlotSeconds:     60,
		Seed:            1,
		TotalTaskBudget: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		for op, recs := range m.archive.byKind[fingerprint(wc)] {
			for i := range recs {
				for j := i + 1; j < len(recs); j++ {
					if reflect.DeepEqual(recs[i], recs[j]) {
						t.Fatalf("after round %d the %s window holds %+v twice (records %d and %d of %d)",
							m.Round()-1, op, recs[i], i, j, len(recs))
					}
				}
			}
		}
	}
	if b := jobByName(m.Result(), "b"); b.WarmStartRecords == 0 {
		t.Fatal("b was not warm-started, so the test seeded no copies")
	}
}

// TestFleetRetentionUnderChurn pins what a tenant keeps between rounds.
// Harvest drains every running tenant's history DB at the end of each
// round, so between Steps the DB is empty and during a round it holds
// at most that round's records; a departed tenant, by schedule or by
// kill, keeps no engine, controller or DB; a tenant that never ran never
// built one.
func TestFleetRetentionUnderChurn(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	gr := mustSpec(t, workload.Group)
	m, err := New(Config{
		Jobs: []JobSpec{
			{Name: "stay", Workload: wc, Rates: constRates(t, wc.HighRates)},
			{Name: "brief", Workload: wc, Rates: constRates(t, wc.HighRates), DepartSlot: 3},
			{Name: "late", Workload: gr, Rates: constRates(t, gr.HighRates), ArriveSlot: 2, DepartSlot: 6},
			{Name: "killed", Workload: wc, Rates: constRates(t, wc.LowRates), ArriveSlot: 1},
		},
		Slots:           8,
		SlotSeconds:     60,
		Seed:            2,
		TotalTaskBudget: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		switch m.Round() {
		case 3:
			if err := m.Submit(JobSpec{Name: "dyn", Workload: gr, Rates: constRates(t, gr.LowRates)}); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := m.Kill("killed"); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		for _, js := range m.jobs {
			if js.status != StatusRunning {
				if js.t != nil || js.db != nil {
					t.Errorf("round %d: %s job %s still holds its stack", m.Round()-1, js.status, js.spec.Name)
				}
				continue
			}
			if n := js.db.Len(); n != 0 {
				t.Errorf("round %d: running job %s holds %d undrained records", m.Round()-1, js.spec.Name, n)
			}
		}
	}
	res := m.Result()
	for name, want := range map[string]JobStatus{"stay": StatusRunning, "brief": StatusDeparted,
		"late": StatusDeparted, "killed": StatusDeparted, "dyn": StatusRunning} {
		if got := jobByName(res, name).Status; got != want {
			t.Errorf("%s ended %v, want %v", name, got, want)
		}
	}
	if res.Metrics.CounterValue("fleet_warmstart_harvested") == 0 {
		t.Error("no records harvested into the warm-start archive")
	}
}

// TestFleetWarmStart: gamma shares alpha's workload fingerprint and
// arrives after alpha has produced history, so it must be seeded; beta's
// workload is structurally different and must not be.
func TestFleetWarmStart(t *testing.T) {
	res := runFleet(t, threeJobConfig(t))
	var gamma, beta JobResult
	for _, jr := range res.Jobs {
		switch jr.Name {
		case "gamma":
			gamma = jr
		case "beta":
			beta = jr
		}
	}
	if gamma.WarmStartRecords == 0 {
		t.Fatalf("gamma should warm-start from alpha's archive, got %d records", gamma.WarmStartRecords)
	}
	if beta.WarmStartRecords != 0 {
		t.Fatal("beta has a different workload fingerprint and must not warm-start")
	}
}

// TestFleetAdmissionRejectsImpossibleFloor: a job whose floor exceeds
// the global budget can never run and is rejected outright.
func TestFleetAdmissionRejectsImpossibleFloor(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	cfg := Config{
		Jobs: []JobSpec{
			{Name: "giant", Workload: wc, Rates: constRates(t, wc.LowRates)},
		},
		Slots:           2,
		SlotSeconds:     60,
		TotalTaskBudget: 1, // < floor of 2 operators
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Status != StatusRejected {
		t.Fatalf("got status %v, want rejected", res.Jobs[0].Status)
	}
	if got := admissionOutcomes(m, "giant"); len(got) != 1 || got[0] != "rejected@0" {
		t.Fatalf("admission outcomes %v, want one rejection", got)
	}
}

// TestFleetMembershipCountedOnce pins the single registry: one
// departure and one rejection move fleet_jobs_departed and
// fleet_jobs_rejected by exactly one each, in the round they happen.
func TestFleetMembershipCountedOnce(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	yahoo := mustSpec(t, workload.Yahoo)
	budget := 2 * wc.Graph.NumOperators()
	if yahoo.Graph.NumOperators() <= budget {
		t.Fatalf("yahoo floor %d fits the budget %d", yahoo.Graph.NumOperators(), budget)
	}
	m, err := New(Config{
		Jobs: []JobSpec{
			{Name: "stay", Workload: wc, Rates: constRates(t, wc.LowRates)},
			{Name: "leave", Workload: wc, Rates: constRates(t, wc.LowRates), DepartSlot: 2},
			{Name: "giant", Workload: yahoo, Rates: constRates(t, yahoo.LowRates), ArriveSlot: 1},
		},
		Slots:           4,
		SlotSeconds:     60,
		TotalTaskBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := m.Metrics()
	want := map[int][2]int64{0: {0, 0}, 1: {0, 1}, 2: {1, 1}, 3: {1, 1}}
	for r := 0; r < 4; r++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		got := [2]int64{reg.CounterValue("fleet_jobs_departed"), reg.CounterValue("fleet_jobs_rejected")}
		if got != want[r] {
			t.Errorf("after round %d: departed, rejected = %v, want %v", r, got, want[r])
		}
	}
}

// TestFleetAdmissionQueuesUntilCapacity: with a budget that only fits
// one tenant, the second waits in the queue until the first departs.
func TestFleetAdmissionQueuesUntilCapacity(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	gr := mustSpec(t, workload.Group)
	cfg := Config{
		Jobs: []JobSpec{
			{Name: "first", Workload: wc, Rates: constRates(t, wc.LowRates), DepartSlot: 3},
			{Name: "second", Workload: gr, Rates: constRates(t, gr.LowRates), ArriveSlot: 1},
		},
		Slots:           6,
		SlotSeconds:     60,
		TotalTaskBudget: 2, // wordcount floor = 2; no room for group's 1 until it departs
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	second := jobByName(res, "second")
	if second.Status != StatusRunning {
		t.Fatalf("second job status %v, want running", second.Status)
	}
	if second.AdmitSlot != 3 {
		t.Fatalf("second admitted at %d, want 3 (when first departs)", second.AdmitSlot)
	}
	if got := strings.Join(admissionOutcomes(m, "second"), " "); got != "queued@1 admitted@3" {
		t.Fatalf("second outcomes %q, want it queued at its arrival and admitted at 3", got)
	}
}

// TestFleetDynamicSubmitAndKill drives the manager step by step the way
// the daemon does: submit a tenant mid-run, then kill it.
func TestFleetDynamicSubmitAndKill(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	gr := mustSpec(t, workload.Group)
	cfg := Config{
		Jobs: []JobSpec{
			{Name: "base", Workload: wc, Rates: constRates(t, wc.LowRates)},
		},
		Slots:           8,
		SlotSeconds:     60,
		TotalTaskBudget: 20,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := m.Submit(JobSpec{Name: "late", Workload: gr, Rates: constRates(t, gr.LowRates)}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := m.Submit(JobSpec{Name: "late", Workload: gr, Rates: constRates(t, gr.LowRates)}); err == nil {
		t.Fatal("duplicate submit should fail")
	}
	if err := m.Step(); err != nil {
		t.Fatalf("step after submit: %v", err)
	}
	jobs := m.Jobs()
	if len(jobs) != 2 || jobs[1].Name != "late" || jobs[1].Status != StatusRunning {
		t.Fatalf("late job not running after submit: %+v", jobs)
	}
	if err := m.Kill("late"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := m.Kill("nope"); err == nil {
		t.Fatal("killing an unknown job should fail")
	}
	if err := m.Step(); err != nil {
		t.Fatalf("step after kill: %v", err)
	}
	for _, jr := range m.Jobs() {
		if jr.Name == "late" && jr.Status != StatusDeparted {
			t.Fatalf("late job status %v after kill, want departed", jr.Status)
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run to completion: %v", err)
	}
	if res.Slots != 8 || !m.Done() {
		t.Fatal("manager did not finish its schedule")
	}
}

// TestFleetInboxOrderAndDedup pins the inbox contract: external inputs
// are delivered in call order at the next round's drain, a second kill
// for a job whose kill is still pending is an idempotent no-op counted
// in fleet_inbox_deduped, and the journal plus the inbox is exactly the
// input record a checkpoint carries.
func TestFleetInboxOrderAndDedup(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	gr := mustSpec(t, workload.Group)
	m, err := New(Config{
		Jobs:            []JobSpec{{Name: "base", Workload: wc, Rates: constRates(t, wc.LowRates)}},
		Slots:           4,
		SlotSeconds:     60,
		TotalTaskBudget: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	submit := func(name string) {
		t.Helper()
		if err := m.Submit(JobSpec{Name: name, Workload: gr, Rates: constRates(t, gr.LowRates)}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
	}
	kill := func(name string) {
		t.Helper()
		if err := m.Kill(name); err != nil {
			t.Fatalf("kill %s: %v", name, err)
		}
	}
	inputs := func() []string {
		var out []string
		for _, in := range m.BuildCheckpoint().Sections.Inputs {
			out = append(out, fmt.Sprintf("%d %s %s", in.Round, in.Kind, in.Job))
		}
		return out
	}
	submit("a")
	submit("b")
	kill("a")
	kill("a")
	kill("base")
	if len(m.inbox) != 4 {
		t.Fatalf("before the drain: %d pending, want 4 (the duplicate kill is dropped)", len(m.inbox))
	}
	want := []string{"1 submit a", "1 submit b", "1 kill a", "1 kill base"}
	if got := inputs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending input record %q, want %q", got, want)
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	var delivered []string
	for _, e := range m.Events() {
		if e.Type == event.TypeSubmit || e.Type == event.TypeKill {
			if e.Round != 1 {
				t.Fatalf("%s delivered in round %d, want 1", e, e.Round)
			}
			delivered = append(delivered, e.Type.String()+" "+e.Job)
		}
	}
	if want := []string{"submit a", "submit b", "kill a", "kill base"}; !reflect.DeepEqual(delivered, want) {
		t.Fatalf("delivered %q, want %q", delivered, want)
	}
	if len(m.inbox) != 0 {
		t.Fatalf("after the drain: %d pending, want 0", len(m.inbox))
	}
	// A departed job's kill is a no-op; a fresh window posts again and
	// dedups again.
	kill("a")
	kill("b")
	kill("b")
	if len(m.inbox) != 1 {
		t.Fatalf("second window: %d pending, want 1", len(m.inbox))
	}
	if err := m.Step(); err != nil {
		t.Fatal(err)
	}
	reg := m.Metrics()
	if v, ok := reg.GaugeValue("fleet_inbox_deduped"); !ok || v != 2 {
		t.Fatalf("fleet_inbox_deduped = %v,%v, want 2", v, ok)
	}
	if v, ok := reg.GaugeValue("fleet_inbox_pending"); !ok || v != 0 {
		t.Fatalf("fleet_inbox_pending = %v,%v, want 0", v, ok)
	}
	want = append(want, "2 kill b")
	if got := inputs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("journaled input record %q, want %q", got, want)
	}
}

// TestFleetChaosRun: cluster-level chaos (a node crash) must not break
// the round loop or the budget invariant — lost pods only reduce
// effective parallelism.
func TestFleetChaosRun(t *testing.T) {
	cfg := threeJobConfig(t)
	spec := chaos.NewSpec("fleet-node-crash")
	spec.CrashLastNode(3)
	spec.HealNode(6)
	cfg.Chaos = spec
	res := runFleet(t, cfg)
	if res.BudgetOverruns != 0 {
		t.Fatalf("chaos run had %d budget overruns, want 0", res.BudgetOverruns)
	}
	// Chaos determinism: same seed, same faults, same outcome.
	cfg2 := threeJobConfig(t)
	spec2 := chaos.NewSpec("fleet-node-crash")
	spec2.CrashLastNode(3)
	spec2.HealNode(6)
	cfg2.Chaos = spec2
	a := resultFingerprint(t, res)
	b := resultFingerprint(t, runFleet(t, cfg2))
	if a != b {
		t.Fatal("chaos fleet run not deterministic at fixed seed")
	}
}

// TestFleetGauges: fleet-level gauges are published after every round.
func TestFleetGauges(t *testing.T) {
	cfg := threeJobConfig(t)
	cfg.Metrics = telemetry.NewRegistry()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	reg := m.Metrics()
	if reg != cfg.Metrics {
		t.Fatal("manager should use the supplied registry")
	}
	if v, ok := reg.GaugeValue("fleet_budget_total"); !ok || v != float64(cfg.TotalTaskBudget) {
		t.Fatalf("fleet_budget_total gauge = %v,%v", v, ok)
	}
	if _, ok := reg.GaugeValue(telemetry.Label("fleet_budget_share", "job", "alpha")); !ok {
		t.Fatal("missing per-job budget share gauge")
	}
	if v, ok := reg.GaugeValue("fleet_running_jobs"); !ok || v != 2 {
		t.Fatalf("fleet_running_jobs = %v,%v, want 2 (beta departed)", v, ok)
	}
	for _, name := range []string{"fleet_budget_share", "fleet_dual_price"} {
		if v, ok := reg.GaugeValue(telemetry.Label(name, "job", "beta")); ok {
			t.Fatalf("departed beta still exports %s = %v", name, v)
		}
	}
	if reg.CounterValue("fleet_rounds") != int64(cfg.Slots) {
		t.Fatalf("fleet_rounds = %d, want %d", reg.CounterValue("fleet_rounds"), cfg.Slots)
	}
}

// TestFleetArbiterRespondsToPressure: with one heavily loaded and one
// lightly loaded tenant under a tight budget, the dual-price arbiter
// must end up granting the loaded tenant the larger share.
func TestFleetArbiterRespondsToPressure(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	gr := mustSpec(t, workload.Group)
	cfg := Config{
		Jobs: []JobSpec{
			{Name: "hot", Workload: wc, Rates: constRates(t, wc.HighRates)},
			{Name: "cold", Workload: gr, Rates: constRates(t, []float64{2000})},
		},
		Slots:           10,
		SlotSeconds:     120,
		Seed:            3,
		TotalTaskBudget: 12,
		Arbitration:     DualPrice,
	}
	res := runFleet(t, cfg)
	var hot, cold JobResult
	for _, jr := range res.Jobs {
		switch jr.Name {
		case "hot":
			hot = jr
		case "cold":
			cold = jr
		}
	}
	lastHot := hot.Rounds[len(hot.Rounds)-1]
	lastCold := cold.Rounds[len(cold.Rounds)-1]
	if lastHot.Budget <= lastCold.Budget {
		t.Fatalf("dual-price arbiter left hot job budget %d ≤ cold job budget %d",
			lastHot.Budget, lastCold.Budget)
	}
	if res.Metrics.CounterValue("fleet_arbiter_decisions") == 0 {
		t.Fatal("no arbiter decisions recorded")
	}
}

// TestLargestRemainder pins the apportionment helper's determinism and
// exactness.
func TestLargestRemainder(t *testing.T) {
	cases := []struct {
		total   int
		weights []float64
		want    []int
	}{
		{10, []float64{1, 1, 1}, []int{4, 3, 3}},      // tie → lowest index first
		{7, []float64{3, 1}, []int{5, 2}},             // 5.25/1.75 → 5,1 + remainder to idx1
		{5, []float64{0, 1}, []int{0, 5}},             // zero weight gets nothing
		{0, []float64{1, 2}, []int{0, 0}},             // nothing to give
		{3, []float64{2, 2, 2, 2}, []int{1, 1, 1, 0}}, // equal fractions, index order
		{12, []float64{1, 2, 3}, []int{2, 4, 6}},      // exact proportions
	}
	for i, c := range cases {
		got := largestRemainder(c.total, c.weights, sumF(c.weights))
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v", i, got)
		}
		s := 0
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v, want %v", i, got, c.want)
			}
			s += got[j]
		}
		if c.total > 0 && sumF(c.weights) > 0 && s != c.total {
			t.Fatalf("case %d: apportioned %d of %d", i, s, c.total)
		}
	}
}

func sumF(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestFleetConfigValidation spot-checks the config guard rails.
func TestFleetConfigValidation(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	ok := func() Config {
		return Config{
			Jobs:            []JobSpec{{Name: "a", Workload: wc, Rates: constRates(t, wc.LowRates)}},
			Slots:           1,
			TotalTaskBudget: 10,
		}
	}
	if _, err := New(ok()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Jobs = nil },
		func(c *Config) { c.Jobs = append(c.Jobs, c.Jobs[0]) }, // duplicate name
		func(c *Config) { c.Slots = 0 },
		func(c *Config) { c.TotalTaskBudget = 0 },
		func(c *Config) { c.Jobs[0].Name = "" },
		func(c *Config) { c.Jobs[0].Rates = nil },
		func(c *Config) { c.Jobs[0].DepartSlot = 1; c.Jobs[0].ArriveSlot = 2 },
		func(c *Config) { c.Jobs[0].Priority = -1 },
		func(c *Config) { c.RebalanceEvery = -1 },
	}
	for i, mutate := range bad {
		cfg := ok()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestFleetRejectsNonFinitePriority: a NaN or infinite priority would
// reach dualPriceSplit as a NaN weight sum once the job is starved, so
// both entry points that validate a JobSpec reject it.
func TestFleetRejectsNonFinitePriority(t *testing.T) {
	wc := mustSpec(t, workload.WordCount)
	job := func(name string, priority float64) JobSpec {
		return JobSpec{Name: name, Workload: wc, Rates: constRates(t, wc.LowRates), Priority: priority}
	}
	for _, tc := range []struct {
		name     string
		priority float64
	}{
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(Config{Jobs: []JobSpec{job("a", tc.priority)}, Slots: 1, TotalTaskBudget: 10}); err == nil {
				t.Error("New accepted the priority")
			}
			m, err := New(Config{Jobs: []JobSpec{job("a", 1)}, Slots: 1, TotalTaskBudget: 10})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Submit(job("b", tc.priority)); err == nil {
				t.Error("Submit accepted the priority")
			}
		})
	}
}

// TestFingerprint pins the compatibility rule: same structure → same
// key; different grid bound or name → different key.
func TestFingerprint(t *testing.T) {
	a := mustSpec(t, workload.WordCount)
	b := mustSpec(t, workload.WordCount)
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("identical specs must share a fingerprint")
	}
	c := mustSpec(t, workload.WordCount)
	c.MaxTasks = 5
	if fingerprint(a) == fingerprint(c) {
		t.Fatal("different grid bounds must not share a fingerprint")
	}
	d := mustSpec(t, workload.Group)
	if fingerprint(a) == fingerprint(d) {
		t.Fatal("different workloads must not share a fingerprint")
	}
	if !strings.HasPrefix(fingerprint(a), "wordcount|") {
		t.Fatalf("fingerprint should lead with the workload name: %q", fingerprint(a))
	}
}
