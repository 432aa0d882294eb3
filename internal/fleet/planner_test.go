package fleet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dragster/internal/fleet/event"
	"dragster/internal/workload"
)

// plannedConfig is the capacity-planning fleet scenario: a planned
// tenant from round 0, a cold-floor tenant alongside it, and a planned
// late arrival — the shapes the admission wiring must journal and replay
// identically.
func plannedConfig(t *testing.T) Config {
	t.Helper()
	wc := mustSpec(t, workload.WordCount)
	gr := mustSpec(t, workload.Group)
	wc2 := mustSpec(t, workload.WordCount)
	return Config{
		Jobs: []JobSpec{
			{Name: "planned", Workload: wc, Rates: constRates(t, wc.LowRates), PlanOnAdmit: true},
			{Name: "cold", Workload: gr, Rates: constRates(t, gr.LowRates)},
			{Name: "late", Workload: wc2, Rates: constRates(t, wc2.LowRates), ArriveSlot: 3,
				PlanOnAdmit: true, TargetRates: wc2.LowRates},
		},
		Slots:           8,
		SlotSeconds:     120,
		Seed:            11,
		TotalTaskBudget: 30,
	}
}

// plannedDynamicSpec is the dynamic planned tenant the scenario submits
// mid-run (exercising plan journaling on the inbox path).
func plannedDynamicSpec(t *testing.T) JobSpec {
	t.Helper()
	wc := mustSpec(t, workload.WordCount)
	return JobSpec{Name: "dyn", Workload: wc, Rates: constRates(t, wc.LowRates), PlanOnAdmit: true}
}

func runPlannedScenario(t *testing.T, procs int) *Manager {
	t.Helper()
	defer withProcs(procs)()
	m, err := New(plannedConfig(t))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for !m.Done() {
		if m.Round() == 2 {
			if err := m.Submit(plannedDynamicSpec(t)); err != nil {
				t.Fatalf("submit dyn: %v", err)
			}
		}
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", m.Round(), err)
		}
	}
	return m
}

// TestFleetPlannedAdmission pins the admission semantics: planned
// tenants are granted the plan's total tasks, start at the plan's
// configuration, seed their GPs from the probe records, and the plan is
// journaled as one TypePlan event per planned tenant before its admit.
func TestFleetPlannedAdmission(t *testing.T) {
	m := runPlannedScenario(t, 1)

	plans := map[string]event.Event{}
	admits := map[string]event.Event{}
	for _, e := range m.Events() {
		switch e.Type {
		case event.TypePlan:
			if _, dup := plans[e.Job]; dup {
				t.Errorf("job %s planned twice", e.Job)
			}
			plans[e.Job] = e
			if _, admitted := admits[e.Job]; admitted {
				t.Errorf("job %s planned after admission", e.Job)
			}
		case event.TypeAdmit:
			admits[e.Job] = e
		}
	}
	for _, name := range []string{"planned", "late", "dyn"} {
		pe, ok := plans[name]
		if !ok {
			t.Fatalf("no TypePlan event for %s", name)
		}
		p := m.PlanFor(name)
		if p == nil {
			t.Fatalf("PlanFor(%s) = nil after planned admission", name)
		}
		if len(pe.Args) != len(p.Tasks) {
			t.Fatalf("%s: plan event carries %d floors, plan has %d", name, len(pe.Args), len(p.Tasks))
		}
		total := int64(0)
		for i, a := range pe.Args {
			if a != int64(p.Tasks[i]) {
				t.Errorf("%s: plan event floor %d = %d, plan %d", name, i, a, p.Tasks[i])
			}
			total += a
		}
		ae, ok := admits[name]
		if !ok {
			t.Fatalf("planned job %s never admitted", name)
		}
		if ae.Args[0] != total {
			t.Errorf("%s: admitted with grant %d, plan total %d", name, ae.Args[0], total)
		}
	}
	if _, ok := plans["cold"]; ok {
		t.Error("cold-floor tenant has a TypePlan event")
	}
	if m.PlanFor("cold") != nil {
		t.Error("PlanFor(cold) returned a plan")
	}
	if m.PlanFor("nosuch") != nil {
		t.Error("PlanFor(nosuch) returned a plan")
	}

	for _, jr := range m.Result().Jobs {
		planned := jr.Name != "cold"
		if jr.Planned != planned {
			t.Errorf("job %s: Planned = %v", jr.Name, jr.Planned)
		}
		if !planned {
			continue
		}
		probes := len(m.PlanFor(jr.Name).Probes)
		want := fmt.Sprintf("digest=%s probes=%d ", jr.PlanDigest, probes)
		if jr.PlanDigest == "" || probes == 0 || !strings.HasPrefix(plans[jr.Name].Note, want) {
			t.Errorf("job %s: digest %q and %d probes, plan event note %q", jr.Name, jr.PlanDigest, probes, plans[jr.Name].Note)
		}
	}
}

// TestFleetPlannedTraceByteIdenticalAcrossWorkers extends the headline
// determinism invariant to planner-admitted tenants: fixed seed →
// byte-identical event trace (TypePlan events included) at any decide
// worker count.
func TestFleetPlannedTraceByteIdenticalAcrossWorkers(t *testing.T) {
	base := runPlannedScenario(t, 1)
	baseTrace := base.TraceBytes()
	baseFP := resultFingerprint(t, base.Result())
	for _, procs := range decideWorkerCounts[1:] {
		m := runPlannedScenario(t, procs)
		if !bytes.Equal(m.TraceBytes(), baseTrace) {
			t.Fatalf("GOMAXPROCS=%d: trace diverged:\n%s",
				procs, firstTraceDiff(m.TraceText(), base.TraceText()))
		}
		if fp := resultFingerprint(t, m.Result()); fp != baseFP {
			t.Fatalf("GOMAXPROCS=%d: result fingerprint diverged", procs)
		}
	}
}

// TestFleetPlannedFailover runs the checkpoint/failover harness over the
// planned scenario: a replica resumed mid-run at a different decide
// worker count must rebuild the same plans (digest-verified by Resume)
// and finish with a byte-identical trace.
func TestFleetPlannedFailover(t *testing.T) {
	const cut = 5
	ref := runPlannedScenario(t, 1)
	refTrace := ref.TraceBytes()

	defer withProcs(2)()
	primary, err := New(plannedConfig(t))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for primary.Round() < cut {
		if primary.Round() == 2 {
			if err := primary.Submit(plannedDynamicSpec(t)); err != nil {
				t.Fatalf("submit dyn: %v", err)
			}
		}
		if err := primary.Step(); err != nil {
			t.Fatalf("primary step %d: %v", primary.Round(), err)
		}
	}
	ck := decodeCheckpoint(t, encodeCheckpoint(t, primary.BuildCheckpoint()))

	defer withProcs(7)()
	specs := map[string]JobSpec{"dyn": plannedDynamicSpec(t)}
	rep, err := Resume(plannedConfig(t), ck, specs)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if got, want := rep.PlanFor("planned"), primary.PlanFor("planned"); got == nil || want == nil || got.Digest() != want.Digest() {
		t.Fatal("replica's rebuilt plan digest diverged from the primary's")
	}
	if _, err := rep.Run(); err != nil {
		t.Fatalf("replica run: %v", err)
	}
	if !bytes.Equal(rep.TraceBytes(), refTrace) {
		t.Fatalf("replica trace diverged from uninterrupted run:\n%s",
			firstTraceDiff(rep.TraceText(), ref.TraceText()))
	}
}

// TestFleetPlannedWarmStart: the planned tenant is admitted at the
// plan's allocation, and its first row accounts the slot that allocation
// ran, so that row must already sustain near the plan's target rather
// than the cold floor's trickle.
func TestFleetPlannedWarmStart(t *testing.T) {
	m := runPlannedScenario(t, 1)
	for _, jr := range m.Result().Jobs {
		if jr.Name != "planned" {
			continue
		}
		if len(jr.Rounds) == 0 {
			t.Fatal("planned tenant ran no rounds")
		}
		first := jr.Rounds[0]
		p := m.PlanFor("planned")
		if first.Budget != p.TotalTasks {
			t.Errorf("first round budget %d, plan granted %d", first.Budget, p.TotalTasks)
		}
		// No cold start: the very first round already sustains (near) the
		// plan's target throughput instead of the floor's trickle.
		if first.Steady < 0.9*p.TargetThroughput {
			t.Errorf("first round steady %.0f < 90%% of plan target %.0f (cold start?)",
				first.Steady, p.TargetThroughput)
		}
		return
	}
	t.Fatal("planned tenant missing from results")
}
