package store

import (
	"bytes"
	"strings"
	"testing"
)

type arbiterSection struct {
	Round   int            `json:"round"`
	Budgets map[string]int `json:"budgets"`
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := NewCheckpoint("fleet")
	want := arbiterSection{Round: 7, Budgets: map[string]int{"alpha": 9, "beta": 4}}
	if err := ck.Put("arbiter", want); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := ck.Put("meta", map[string]int{"slots": 12}); err != nil {
		t.Fatalf("put meta: %v", err)
	}
	var buf bytes.Buffer
	if err := ck.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	got, err := RestoreCheckpoint(bytes.NewReader(buf.Bytes()), "fleet")
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	var sec arbiterSection
	if err := got.Get("arbiter", &sec); err != nil {
		t.Fatalf("get: %v", err)
	}
	if sec.Round != want.Round || sec.Budgets["alpha"] != 9 || sec.Budgets["beta"] != 4 {
		t.Fatalf("restored %+v, want %+v", sec, want)
	}
	if len(got.sections) != 2 {
		t.Fatalf("sections %v, want arbiter and meta", got.sections)
	}
	if !got.Has("meta") || got.Has("nope") {
		t.Fatal("Has misreports sections")
	}
}

func TestCheckpointDeterministicBytes(t *testing.T) {
	build := func() []byte {
		ck := NewCheckpoint("fleet")
		// Insertion order must not leak into the bytes.
		for _, name := range []string{"zeta", "alpha", "mid"} {
			if err := ck.Put(name, map[string]int{"v": len(name)}); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := ck.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatal("checkpoint bytes are not deterministic")
	}
}

func TestCheckpointKindAndVersionGuards(t *testing.T) {
	ck := NewCheckpoint("fleet")
	if err := ck.Put("s", 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ck.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCheckpoint(bytes.NewReader(buf.Bytes()), "history"); err == nil {
		t.Fatal("wrong kind accepted")
	}
	bad := strings.Replace(buf.String(), `"version": 1`, `"version": 99`, 1)
	if _, err := RestoreCheckpoint(strings.NewReader(bad), "fleet"); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := RestoreCheckpoint(strings.NewReader("{garbage"), "fleet"); err == nil {
		t.Fatal("malformed stream accepted")
	}
}

func TestCheckpointMissingSection(t *testing.T) {
	ck := NewCheckpoint("fleet")
	var v int
	if err := ck.Get("absent", &v); err == nil {
		t.Fatal("missing section read as success")
	}
	if err := ck.Put("", 1); err == nil {
		t.Fatal("empty section name accepted")
	}
}
