package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
)

// checkpointCut is the round at which the failover tests kill the
// primary. scenarioInputs posts a kill at this round, so the checkpoint
// carries a pending (undelivered) input — the repost path is exercised,
// not just the replay of committed history.
const checkpointCut = 6

// encodeCheckpoint and decodeCheckpoint are the checkpoint's trip
// through its JSON file form, the way it reaches a replica.
func encodeCheckpoint(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	b, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		t.Fatalf("encode checkpoint: %v", err)
	}
	return b
}

func decodeCheckpoint(t *testing.T, b []byte) *Checkpoint {
	t.Helper()
	var ck Checkpoint
	if err := json.Unmarshal(b, &ck); err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	return &ck
}

// editCheckpoint applies edit to the generic JSON form of a checkpoint
// file (top-level keys and the "sections" object) and decodes the result.
func editCheckpoint(t *testing.T, b []byte, edit func(top, sections map[string]any)) *Checkpoint {
	t.Helper()
	var top map[string]any
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber() // a float64 would round the 64-bit trace hash
	if err := dec.Decode(&top); err != nil {
		t.Fatal(err)
	}
	edit(top, top["sections"].(map[string]any))
	out, err := json.Marshal(top)
	if err != nil {
		t.Fatal(err)
	}
	return decodeCheckpoint(t, out)
}

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
	return encodeCheckpoint(t, m.BuildCheckpoint())
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
	rep, err := Resume(threeJobConfig(t), decodeCheckpoint(t, ckBytes), specs)
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

// TestFleetCheckpointBytesStableAcrossResume: the checkpoint file form
// is canonical. Decoding and re-encoding it yields the same bytes, and a
// replica resumed from it cuts a byte-identical checkpoint before its
// first step, pending inputs included.
func TestFleetCheckpointBytesStableAcrossResume(t *testing.T) {
	a := runPrimaryToCheckpoint(t, 1)
	if b := encodeCheckpoint(t, decodeCheckpoint(t, a)); !bytes.Equal(a, b) {
		t.Fatal("checkpoint bytes change on a decode/encode round trip")
	}
	rep, err := Resume(threeJobConfig(t), decodeCheckpoint(t, a), map[string]JobSpec{"delta": deltaSpec(t)})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if b := encodeCheckpoint(t, rep.BuildCheckpoint()); !bytes.Equal(a, b) {
		t.Fatalf("resumed replica's checkpoint differs from the one it resumed from:\n%s",
			firstTraceDiff(string(b), string(a)))
	}
}

// TestFleetResumeAcceptsLegacyShardsMeta: checkpoints written while the
// fleet still had a shard count carry "shards" in their meta section.
// The key is no longer read, and such a checkpoint must still resume and
// finish byte-identical to an uninterrupted run.
func TestFleetResumeAcceptsLegacyShardsMeta(t *testing.T) {
	ref := runEventScenario(t, 0)
	ck := editCheckpoint(t, runPrimaryToCheckpoint(t, 0), func(_, sections map[string]any) {
		sections["meta"].(map[string]any)["shards"] = 4
	})
	rep, err := Resume(threeJobConfig(t), ck, map[string]JobSpec{"delta": deltaSpec(t)})
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
// missing dynamic spec, a foreign or truncated file, or a tampered
// section must be refused, never silently forked.
func TestFleetResumeRejectsDivergence(t *testing.T) {
	ckBytes := runPrimaryToCheckpoint(t, 1)
	specs := map[string]JobSpec{"delta": deltaSpec(t)}
	refuse := func(t *testing.T, cfg Config, ck *Checkpoint, specs map[string]JobSpec, what string) {
		t.Helper()
		_, err := Resume(cfg, ck, specs)
		if err == nil {
			t.Fatalf("resume with %s accepted", what)
		}
		t.Logf("%s: %v", what, err)
	}
	edited := func(t *testing.T, edit func(top, sections map[string]any)) *Checkpoint {
		return editCheckpoint(t, ckBytes, edit)
	}

	t.Run("wrong seed", func(t *testing.T) {
		cfg := threeJobConfig(t)
		cfg.Seed = 99
		refuse(t, cfg, decodeCheckpoint(t, ckBytes), specs, "a different seed")
	})
	t.Run("wrong budget", func(t *testing.T) {
		cfg := threeJobConfig(t)
		cfg.TotalTaskBudget = 12
		refuse(t, cfg, decodeCheckpoint(t, ckBytes), specs, "a different budget")
	})
	t.Run("missing dynamic spec", func(t *testing.T) {
		refuse(t, threeJobConfig(t), decodeCheckpoint(t, ckBytes), nil, "no spec for the dynamic job")
	})
	t.Run("tampered trace hash", func(t *testing.T) {
		ck := edited(t, func(_, sections map[string]any) {
			sections["core"].(map[string]any)["trace_hash"] = 12345
		})
		refuse(t, threeJobConfig(t), ck, specs, "a tampered trace hash")
	})
	t.Run("tampered arbiter budget", func(t *testing.T) {
		ck := decodeCheckpoint(t, ckBytes)
		ck.Sections.Arbiter[0].Budget += 5
		refuse(t, threeJobConfig(t), ck, specs, "a tampered arbiter budget")
	})
	t.Run("duplicated input", func(t *testing.T) {
		// The pending kill posted twice: the replica drops the copy as a
		// duplicate, which the primary never recorded.
		ck := decodeCheckpoint(t, ckBytes)
		in := ck.Sections.Inputs
		ck.Sections.Inputs = append(in, in[len(in)-1])
		refuse(t, threeJobConfig(t), ck, specs, "a duplicated input")
	})
	t.Run("input out of round order", func(t *testing.T) {
		ck := decodeCheckpoint(t, ckBytes)
		ck.Sections.Inputs[0].Round = checkpointCut + 1
		refuse(t, threeJobConfig(t), ck, specs, "an input past the checkpoint round")
	})
	t.Run("wrong kind", func(t *testing.T) {
		refuse(t, threeJobConfig(t), edited(t, func(top, _ map[string]any) { top["kind"] = "gp" }),
			specs, "a foreign checkpoint kind")
	})
	t.Run("wrong version", func(t *testing.T) {
		refuse(t, threeJobConfig(t), edited(t, func(top, _ map[string]any) { top["version"] = 2 }),
			specs, "a future checkpoint version")
	})
	t.Run("missing section", func(t *testing.T) {
		for _, name := range []string{"arbiter", "core", "inputs", "meta"} {
			ck := edited(t, func(_, sections map[string]any) { delete(sections, name) })
			refuse(t, threeJobConfig(t), ck, specs, "no "+name+" section")
		}
	})
}
