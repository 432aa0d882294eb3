package fleet

// Checkpointed failover by deterministic replay. The fleet is a
// deterministic state machine over (Config, external inputs): the same
// seed and the same input stream reproduce the same event trace byte for
// byte. A checkpoint therefore does not serialize GP posteriors, cluster
// pods, or buffer levels — it records the things replay cannot rederive
// (the external input log) plus enough committed state to *verify* the
// replay: the trace length and hash, the inbox cursor, and the arbiter's
// per-tenant section (budgets, usage, demand estimates, lifecycle
// slots). Resume builds a fresh Manager from the same Config, replays
// the recorded inputs round by round, and then cross-checks every
// verifiable section against the checkpoint; any divergence — a replica
// started with a different config, a corrupted checkpoint, a
// non-deterministic run — is an error, never a silent fork. A replica
// that passes takes over mid-run and produces the exact trace suffix the
// failed primary would have.

import (
	"fmt"
	"io"

	"dragster/internal/store"
)

// CheckpointKind tags fleet checkpoints inside the store envelope.
const CheckpointKind = "fleet"

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

// coreCheckpoint pins the message core's cursors: the committed trace
// prefix and the inbox delivery position.
type coreCheckpoint struct {
	TraceLen     int    `json:"trace_len"`
	TraceHash    uint64 `json:"trace_hash"`
	InboxNextSeq uint64 `json:"inbox_next_seq"`
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

// BuildCheckpoint captures the manager's replayable state between
// rounds. The manager is not safe for concurrent use; the caller (the
// daemon) serializes checkpointing against Step.
func (m *Manager) BuildCheckpoint() (*store.Checkpoint, error) {
	ck := store.NewCheckpoint(CheckpointKind)
	meta := fleetMeta{
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
	if err := ck.Put("meta", meta); err != nil {
		return nil, err
	}
	core := coreCheckpoint{
		TraceLen:     m.log.Len(),
		TraceHash:    m.log.Hash(),
		InboxNextSeq: m.inbox.NextSeq(),
	}
	if err := ck.Put("core", core); err != nil {
		return nil, err
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
	if err := ck.Put("arbiter", jobs); err != nil {
		return nil, err
	}
	inputs := m.inputs
	if inputs == nil {
		inputs = []InputRecord{}
	}
	if err := ck.Put("inputs", inputs); err != nil {
		return nil, err
	}
	return ck, nil
}

// ResumeReader restores a replica from a serialized checkpoint.
func ResumeReader(cfg Config, r io.Reader, specs map[string]JobSpec) (*Manager, error) {
	ck, err := store.RestoreCheckpoint(r, CheckpointKind)
	if err != nil {
		return nil, err
	}
	return Resume(cfg, ck, specs)
}

// Resume builds a replica Manager that takes over a checkpointed run:
// it constructs a fresh Manager from cfg (which must match the
// primary's), replays the recorded external inputs through the rounds
// the primary completed, and verifies the result against every section
// of the checkpoint — trace prefix hash, inbox cursor, and the arbiter's
// per-tenant state. specs supplies the JobSpec of every dynamic
// submission by name (specs are not serializable: they carry workload
// models and rate functions); it may be nil when the run had none.
func Resume(cfg Config, ck *store.Checkpoint, specs map[string]JobSpec) (*Manager, error) {
	var meta fleetMeta
	if err := ck.Get("meta", &meta); err != nil {
		return nil, err
	}
	var core coreCheckpoint
	if err := ck.Get("core", &core); err != nil {
		return nil, err
	}
	var jobs []jobCheckpoint
	if err := ck.Get("arbiter", &jobs); err != nil {
		return nil, err
	}
	var inputs []InputRecord
	if err := ck.Get("inputs", &inputs); err != nil {
		return nil, err
	}
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
	byRound := make(map[int][]InputRecord)
	for _, rec := range inputs {
		byRound[rec.Round] = append(byRound[rec.Round], rec)
	}
	for r := 0; r < meta.Round; r++ {
		if err := m.replayInputs(byRound[r], specs); err != nil {
			return nil, err
		}
		if err := m.Step(); err != nil {
			return nil, fmt.Errorf("fleet: replaying round %d: %w", r, err)
		}
	}
	// Inputs posted at the checkpoint round were pending, not delivered;
	// repost them so the replica's next Step commits them identically.
	if err := m.replayInputs(byRound[meta.Round], specs); err != nil {
		return nil, err
	}
	if m.log.Len() != core.TraceLen || m.log.Hash() != core.TraceHash {
		return nil, fmt.Errorf("fleet: replay diverged: trace len %d hash %#x, checkpoint len %d hash %#x",
			m.log.Len(), m.log.Hash(), core.TraceLen, core.TraceHash)
	}
	if got := m.inbox.NextSeq(); got != core.InboxNextSeq {
		return nil, fmt.Errorf("fleet: replay inbox cursor %d, checkpoint %d", got, core.InboxNextSeq)
	}
	if len(jobs) != len(m.jobs) {
		return nil, fmt.Errorf("fleet: replay produced %d tenants, checkpoint %d", len(m.jobs), len(jobs))
	}
	for i, jc := range jobs {
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
		// The checkpoint's arbiter section is authoritative (a no-op once
		// verified, but the restore path — not the replay — owns the value).
		js.budget = jc.Budget
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

// replayInputs re-posts recorded external inputs and verifies each one
// receives its original sequence stamp.
func (m *Manager) replayInputs(recs []InputRecord, specs map[string]JobSpec) error {
	for _, rec := range recs {
		var seq uint64
		var err error
		switch rec.Kind {
		case "submit":
			spec, ok := specs[rec.Job]
			if !ok {
				return fmt.Errorf("fleet: resume needs the spec of dynamic job %q", rec.Job)
			}
			if spec.Name != rec.Job {
				return fmt.Errorf("fleet: resume spec for %q is named %q", rec.Job, spec.Name)
			}
			seq, err = m.submitInput(spec)
		case "kill":
			seq, err = m.killInput(rec.Job)
		default:
			return fmt.Errorf("fleet: checkpoint has unknown input kind %q", rec.Kind)
		}
		if err != nil {
			return fmt.Errorf("fleet: replaying input %d (%s %s): %w", rec.Seq, rec.Kind, rec.Job, err)
		}
		if seq != rec.Seq {
			return fmt.Errorf("fleet: replayed %s %s stamped seq %d, recorded %d", rec.Kind, rec.Job, seq, rec.Seq)
		}
	}
	return nil
}
