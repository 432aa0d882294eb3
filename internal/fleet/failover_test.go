package fleet

import (
	"bytes"
	"testing"

	"dragster/internal/store"
)

// checkpointCut is the round at which the failover tests kill the
// primary. scenarioInputs posts a kill at this round, so the checkpoint
// carries a pending (undelivered) input — the repost path is exercised,
// not just the replay of committed history.
const checkpointCut = 6

// runPrimaryToCheckpoint drives the event scenario at GOMAXPROCS procs
// until checkpointCut rounds have completed, posts that round's inputs
// (left pending), and returns the serialized checkpoint.
func runPrimaryToCheckpoint(t *testing.T, procs int) []byte {
	t.Helper()
	defer withProcs(procs)()
	m, err := New(threeJobConfig(t))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for m.Round() < checkpointCut {
		scenarioInputs(t, m, m.Round())
		if err := m.Step(); err != nil {
			t.Fatalf("primary step %d: %v", m.Round(), err)
		}
	}
	scenarioInputs(t, m, checkpointCut)
	var buf bytes.Buffer
	ck, err := m.BuildCheckpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := ck.Snapshot(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestFleetFailoverTraceByteIdentical is the failover half of the
// headline invariant: a replica resumed from a mid-run checkpoint — at a
// different decide worker count than the primary — finishes the run with
// an event trace and result byte-identical to an uninterrupted run.
func TestFleetFailoverTraceByteIdentical(t *testing.T) {
	ref := runEventScenario(t, 1)
	refTrace := ref.TraceBytes()
	refFP := resultFingerprint(t, ref.Result())

	ckBytes := runPrimaryToCheckpoint(t, 2)

	defer withProcs(7)()
	specs := map[string]JobSpec{"delta": deltaSpec(t)}
	rep, err := ResumeReader(threeJobConfig(t), bytes.NewReader(ckBytes), specs)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep.Round() != checkpointCut {
		t.Fatalf("replica resumed at round %d, want %d", rep.Round(), checkpointCut)
	}
	if _, err := rep.Run(); err != nil {
		t.Fatalf("replica run: %v", err)
	}
	if !bytes.Equal(rep.TraceBytes(), refTrace) {
		t.Fatalf("replica trace diverged from uninterrupted run:\n%s",
			firstTraceDiff(rep.TraceText(), ref.TraceText()))
	}
	if fp := resultFingerprint(t, rep.Result()); fp != refFP {
		t.Fatalf("replica result fingerprint diverged from uninterrupted run")
	}
}

// TestFleetCheckpointDeterministic: the checkpoint bytes themselves are
// a pure function of manager state, whatever worker count produced it.
func TestFleetCheckpointDeterministic(t *testing.T) {
	a := runPrimaryToCheckpoint(t, 1)
	if len(a) == 0 {
		t.Fatal("empty checkpoint")
	}
	for _, procs := range []int{1, 7} {
		if b := runPrimaryToCheckpoint(t, procs); !bytes.Equal(a, b) {
			t.Fatalf("GOMAXPROCS=%d: checkpoint differs from the serial run's", procs)
		}
	}
}

// TestFleetResumeAcceptsLegacyShardsMeta: checkpoints written while the
// fleet still had a shard count carry "shards" in their meta section.
// The key is no longer read, and such a checkpoint must still resume and
// finish byte-identical to an uninterrupted run.
func TestFleetResumeAcceptsLegacyShardsMeta(t *testing.T) {
	ref := runEventScenario(t, 0)
	ck, err := store.RestoreCheckpoint(bytes.NewReader(runPrimaryToCheckpoint(t, 0)), CheckpointKind)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := ck.Get("meta", &meta); err != nil {
		t.Fatal(err)
	}
	meta["shards"] = 4
	if err := ck.Put("meta", meta); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if err := ck.Snapshot(&raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw.Bytes(), []byte(`"shards": 4`)) {
		t.Fatalf("legacy meta key not in the checkpoint: %s", raw.Bytes())
	}
	rep, err := ResumeReader(threeJobConfig(t), &raw, map[string]JobSpec{"delta": deltaSpec(t)})
	if err != nil {
		t.Fatalf("resume with a legacy shards key: %v", err)
	}
	if _, err := rep.Run(); err != nil {
		t.Fatalf("replica run: %v", err)
	}
	if !bytes.Equal(rep.TraceBytes(), ref.TraceBytes()) {
		t.Fatalf("replica trace diverged from uninterrupted run:\n%s",
			firstTraceDiff(rep.TraceText(), ref.TraceText()))
	}
}

// TestFleetResumeRejectsDivergence: every verifiable section of the
// checkpoint is actually verified — a replica with the wrong config, a
// missing dynamic spec, or a tampered section must be refused, never
// silently forked.
func TestFleetResumeRejectsDivergence(t *testing.T) {
	ckBytes := runPrimaryToCheckpoint(t, 1)
	specs := map[string]JobSpec{"delta": deltaSpec(t)}

	t.Run("wrong seed", func(t *testing.T) {
		cfg := threeJobConfig(t)
		cfg.Seed = 99
		if _, err := ResumeReader(cfg, bytes.NewReader(ckBytes), specs); err == nil {
			t.Fatal("resume with a different seed accepted")
		}
	})
	t.Run("wrong budget", func(t *testing.T) {
		cfg := threeJobConfig(t)
		cfg.TotalTaskBudget = 12
		if _, err := ResumeReader(cfg, bytes.NewReader(ckBytes), specs); err == nil {
			t.Fatal("resume with a different budget accepted")
		}
	})
	t.Run("missing dynamic spec", func(t *testing.T) {
		if _, err := ResumeReader(threeJobConfig(t), bytes.NewReader(ckBytes), nil); err == nil {
			t.Fatal("resume without the dynamic job's spec accepted")
		}
	})
	t.Run("tampered trace hash", func(t *testing.T) {
		m, err := New(threeJobConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		for m.Round() < 3 {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		ck, err := m.BuildCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if err := ck.Put("core", coreCheckpoint{TraceLen: m.log.Len(), TraceHash: 12345, InboxNextSeq: m.inbox.NextSeq()}); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(threeJobConfig(t), ck, nil); err == nil {
			t.Fatal("tampered trace hash accepted")
		}
	})
	t.Run("tampered arbiter budget", func(t *testing.T) {
		m, err := New(threeJobConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		for m.Round() < 3 {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		ck, err := m.BuildCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		var jobs []jobCheckpoint
		if err := ck.Get("arbiter", &jobs); err != nil {
			t.Fatal(err)
		}
		jobs[0].Budget += 5
		if err := ck.Put("arbiter", jobs); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(threeJobConfig(t), ck, nil); err == nil {
			t.Fatal("tampered arbiter budget accepted")
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		if _, err := ResumeReader(threeJobConfig(t), bytes.NewReader([]byte(`{"kind":"gp","version":1}`)), nil); err == nil {
			t.Fatal("foreign checkpoint kind accepted")
		}
	})
}
