package fleet

// Checkpointed failover by deterministic replay. The fleet is a
// deterministic state machine over (Config, external inputs): the same
// seed and the same input stream reproduce the same event trace byte for
// byte. A checkpoint therefore does not serialize GP posteriors, cluster
// pods, or buffer levels — it records the things replay cannot rederive
// (the external inputs, read off the journal's submit and kill events
// plus the inbox) and enough committed state to *verify* the replay: the
// trace length and hash and the arbiter's per-tenant section (budgets,
// usage, demand estimates, lifecycle slots). Resume builds a fresh
// Manager from the same Config, replays the recorded inputs round by
// round, and then cross-checks every verifiable section against the
// checkpoint; any divergence — a replica started with a different
// config, a corrupted checkpoint, a non-deterministic run — is an error,
// never a silent fork. A replica that passes takes over mid-run and
// produces the exact trace suffix the failed primary would have.

import (
	"errors"
	"fmt"

	"dragster/internal/fleet/event"
)

// Checkpoint wire identity: Resume refuses any other kind or version.
const (
	checkpointKind    = "fleet"
	checkpointVersion = 1
)

// Checkpoint is the fleet's replayable state between rounds. Its JSON
// form — deterministic, since struct fields marshal in declaration order
// — is the checkpoint file format.
type Checkpoint struct {
	Kind     string   `json:"kind"`
	Version  int      `json:"version"`
	Sections Sections `json:"sections"`
}

// Sections are the checkpoint's parts. A nil part was missing from the
// decoded file, and Resume refuses it rather than restore zero values.
// The daemon embeds Sections beside its own submission record.
type Sections struct {
	Arbiter []jobCheckpoint `json:"arbiter"`
	Core    *coreCheckpoint `json:"core"`
	Inputs  []inputRecord   `json:"inputs"`
	Meta    *fleetMeta      `json:"meta"`
}

// fleetMeta pins the run identity a replica must share.
type fleetMeta struct {
	Seed            int64    `json:"seed"`
	Slots           int      `json:"slots"`
	SlotSeconds     int      `json:"slot_seconds"`
	TotalTaskBudget int      `json:"total_task_budget"`
	Arbitration     int      `json:"arbitration"`
	Round           int      `json:"round"` // rounds completed when the checkpoint was cut
	ConfigJobs      []string `json:"config_jobs"`
}

// coreCheckpoint pins the committed trace prefix.
type coreCheckpoint struct {
	TraceLen  int    `json:"trace_len"`
	TraceHash uint64 `json:"trace_hash"`
}

// jobCheckpoint is the arbiter's per-tenant section.
type jobCheckpoint struct {
	Name       string `json:"name"`
	Status     int    `json:"status"`
	Budget     int    `json:"budget"`
	Usage      int    `json:"usage"`
	Need       int    `json:"need"`
	ArriveSlot int    `json:"arrive_slot"`
	AdmitSlot  int    `json:"admit_slot"`
	DepartSlot int    `json:"depart_slot"`
	Rounds     int    `json:"rounds"`
	// PlanDigest pins the capacity plan a PlanOnAdmit tenant was granted
	// from (0 = cold floor). Replay rebuilds the plan from the journaled
	// seed, so a digest mismatch means the replica planned differently.
	PlanDigest uint64 `json:"plan_digest,omitempty"`
}

// inputRecord is one external input and the round whose drain delivers
// it. The record — not the full spec — is what a checkpoint carries; a
// replica replays the same inputs at the same rounds (specs re-supplied
// by the caller).
type inputRecord struct {
	Round int    `json:"round"`
	Kind  string `json:"kind"` // "submit" | "kill"
	Job   string `json:"job"`
}

// BuildCheckpoint captures the manager's replayable state between
// rounds. The manager is not safe for concurrent use; the caller (the
// daemon) serializes checkpointing against Step.
func (m *Manager) BuildCheckpoint() *Checkpoint {
	meta := &fleetMeta{
		Seed:            m.cfg.Seed,
		Slots:           m.cfg.Slots,
		SlotSeconds:     m.cfg.SlotSeconds,
		TotalTaskBudget: m.cfg.TotalTaskBudget,
		Arbitration:     int(m.cfg.Arbitration),
		Round:           m.round,
	}
	for i := range m.cfg.Jobs {
		meta.ConfigJobs = append(meta.ConfigJobs, m.cfg.Jobs[i].Name)
	}
	jobs := make([]jobCheckpoint, 0, len(m.jobs))
	for _, js := range m.jobs {
		jobs = append(jobs, jobCheckpoint{
			Name:       js.spec.Name,
			Status:     int(js.status),
			Budget:     js.budget,
			Usage:      js.usage,
			Need:       js.need,
			ArriveSlot: js.res.ArriveSlot,
			AdmitSlot:  js.res.AdmitSlot,
			DepartSlot: js.res.DepartSlot,
			Rounds:     len(js.res.Rounds),
			PlanDigest: planDigest(js),
		})
	}
	// The journal is the record of delivered inputs; the inbox holds the
	// ones the next round's drain will deliver. Non-nil when empty: a
	// nil section is a missing one.
	inputs := []inputRecord{}
	for _, e := range m.log.Events() {
		if e.Type == event.TypeSubmit || e.Type == event.TypeKill {
			inputs = append(inputs, inputRecord{Round: e.Round, Kind: e.Type.String(), Job: e.Job})
		}
	}
	for _, e := range m.inbox {
		inputs = append(inputs, inputRecord{Round: m.round, Kind: e.Type.String(), Job: e.Job})
	}
	return &Checkpoint{
		Kind:    checkpointKind,
		Version: checkpointVersion,
		Sections: Sections{
			Arbiter: jobs,
			Core:    &coreCheckpoint{TraceLen: m.log.Len(), TraceHash: m.log.Hash()},
			Inputs:  inputs,
			Meta:    meta,
		},
	}
}

// Resume builds a replica Manager that takes over a checkpointed run:
// it constructs a fresh Manager from cfg (which must match the
// primary's), replays the recorded external inputs through the rounds
// the primary completed, and verifies the result against every section
// of the checkpoint — trace prefix hash and the arbiter's per-tenant
// state. specs supplies the JobSpec of every dynamic submission by name
// (specs are not serializable: they carry workload models and rate
// functions); it may be nil when the run had none.
func Resume(cfg Config, ck *Checkpoint, specs map[string]JobSpec) (*Manager, error) {
	if ck.Kind != checkpointKind {
		return nil, fmt.Errorf("fleet: checkpoint kind %q, want %q", ck.Kind, checkpointKind)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("fleet: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	s := &ck.Sections
	if s.Arbiter == nil || s.Core == nil || s.Inputs == nil || s.Meta == nil {
		return nil, errors.New("fleet: checkpoint lacks one of its arbiter, core, inputs and meta sections")
	}
	meta := s.Meta
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if m.cfg.Seed != meta.Seed || m.cfg.Slots != meta.Slots ||
		m.cfg.SlotSeconds != meta.SlotSeconds ||
		m.cfg.TotalTaskBudget != meta.TotalTaskBudget ||
		int(m.cfg.Arbitration) != meta.Arbitration {
		return nil, fmt.Errorf("fleet: resume config mismatch: checkpoint (seed %d, %d slots × %ds, budget %d, arbitration %d)",
			meta.Seed, meta.Slots, meta.SlotSeconds, meta.TotalTaskBudget, meta.Arbitration)
	}
	if len(m.cfg.Jobs) != len(meta.ConfigJobs) {
		return nil, fmt.Errorf("fleet: resume config has %d jobs, checkpoint %d", len(m.cfg.Jobs), len(meta.ConfigJobs))
	}
	for i := range meta.ConfigJobs {
		if m.cfg.Jobs[i].Name != meta.ConfigJobs[i] {
			return nil, fmt.Errorf("fleet: resume config job %d is %q, checkpoint %q", i, m.cfg.Jobs[i].Name, meta.ConfigJobs[i])
		}
	}
	if meta.Round > meta.Slots {
		return nil, fmt.Errorf("fleet: checkpoint at round %d of a %d-slot run", meta.Round, meta.Slots)
	}
	// Replay walks the inputs in order: each round's inputs are posted
	// before it runs, and the checkpoint round's are left pending so the
	// replica's next Step delivers them as the primary's would have.
	next := 0
	replay := func(r int) error {
		for ; next < len(s.Inputs) && s.Inputs[next].Round == r; next++ {
			if err := m.replayInput(s.Inputs[next], specs); err != nil {
				return err
			}
		}
		return nil
	}
	for r := 0; r < meta.Round; r++ {
		if err := replay(r); err != nil {
			return nil, err
		}
		if err := m.Step(); err != nil {
			return nil, fmt.Errorf("fleet: replaying round %d: %w", r, err)
		}
	}
	if err := replay(meta.Round); err != nil {
		return nil, err
	}
	if next < len(s.Inputs) {
		in := s.Inputs[next]
		return nil, fmt.Errorf("fleet: checkpoint input %d (%s %s at round %d) is out of round order",
			next, in.Kind, in.Job, in.Round)
	}
	if m.log.Len() != s.Core.TraceLen || m.log.Hash() != s.Core.TraceHash {
		return nil, fmt.Errorf("fleet: replay diverged: trace len %d hash %#x, checkpoint len %d hash %#x",
			m.log.Len(), m.log.Hash(), s.Core.TraceLen, s.Core.TraceHash)
	}
	if len(s.Arbiter) != len(m.jobs) {
		return nil, fmt.Errorf("fleet: replay produced %d tenants, checkpoint %d", len(m.jobs), len(s.Arbiter))
	}
	for i, jc := range s.Arbiter {
		js := m.jobs[i]
		if js.spec.Name != jc.Name {
			return nil, fmt.Errorf("fleet: tenant %d is %q after replay, checkpoint %q", i, js.spec.Name, jc.Name)
		}
		if int(js.status) != jc.Status || js.usage != jc.Usage || js.need != jc.Need ||
			js.res.ArriveSlot != jc.ArriveSlot || js.res.AdmitSlot != jc.AdmitSlot ||
			js.res.DepartSlot != jc.DepartSlot || len(js.res.Rounds) != jc.Rounds {
			return nil, fmt.Errorf("fleet: job %s diverged from checkpoint (status %v/%d, usage %d/%d, need %d/%d, rounds %d/%d)",
				jc.Name, js.status, jc.Status, js.usage, jc.Usage, js.need, jc.Need, len(js.res.Rounds), jc.Rounds)
		}
		if js.budget != jc.Budget {
			return nil, fmt.Errorf("fleet: job %s budget %d after replay, checkpoint %d", jc.Name, js.budget, jc.Budget)
		}
		if got := planDigest(js); got != jc.PlanDigest {
			return nil, fmt.Errorf("fleet: job %s plan digest %#x after replay, checkpoint %#x", jc.Name, got, jc.PlanDigest)
		}
	}
	return m, nil
}

// planDigest is the tenant's capacity-plan identity (0 = cold floor).
func planDigest(js *jobState) uint64 {
	if js.plan == nil {
		return 0
	}
	return js.plan.Digest()
}

// replayInput re-posts one recorded external input. The primary only
// recorded inputs its inbox accepted, so one the replica refuses or
// drops as a no-op means the replay has diverged.
func (m *Manager) replayInput(in inputRecord, specs map[string]JobSpec) error {
	pending := len(m.inbox)
	var err error
	switch in.Kind {
	case event.TypeSubmit.String():
		spec, ok := specs[in.Job]
		switch {
		case !ok:
			return fmt.Errorf("fleet: resume needs the spec of dynamic job %q", in.Job)
		case spec.Name != in.Job:
			return fmt.Errorf("fleet: resume spec for %q is named %q", in.Job, spec.Name)
		}
		err = m.Submit(spec)
	case event.TypeKill.String():
		err = m.Kill(in.Job)
	default:
		return fmt.Errorf("fleet: checkpoint has unknown input kind %q", in.Kind)
	}
	if err == nil && len(m.inbox) == pending {
		err = errors.New("dropped as a no-op")
	}
	if err != nil {
		return fmt.Errorf("fleet: replaying %s %s at round %d: %w", in.Kind, in.Job, in.Round, err)
	}
	return nil
}
