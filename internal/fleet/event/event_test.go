package event

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Round: 0, Type: TypeRoundBegin, Args: []int64{0}},
		{Round: 0, Type: TypeArrive, Job: "alpha"},
		{Round: 0, Type: TypeAdmit, Job: "alpha", Args: []int64{4}},
		{Round: 0, Type: TypeReject, Job: "giant", Note: "floor 12 exceeds total budget 8"},
		{Round: 1, Type: TypeGrant, Job: "alpha", Args: []int64{4, 7}, Note: "price=0.31"},
		{Round: 1, Type: TypeDecide, Job: "alpha", Args: []int64{2, 3, 2}},
		{Round: 1, Type: TypeSkip, Job: "beta"},
		{Round: 2, Type: TypeShrink, Job: "alpha", Args: []int64{5}},
		{Round: 2, Type: TypeDepart, Job: "alpha"},
		{Round: 2, Type: TypeRoundEnd, Args: []int64{5}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for i, want := range sampleEvents() {
		want.Seq = uint64(i + 1)
		enc := Append(nil, want)
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("event %d: decode: %v", i, err)
		}
		if n != len(enc) {
			t.Fatalf("event %d: consumed %d of %d bytes", i, n, len(enc))
		}
		if !equalPayload(got, want) || got.Seq != want.Seq {
			t.Fatalf("event %d: round-trip mismatch:\n got %s\nwant %s", i, got, want)
		}
		// Canonical: re-encoding the decoded event reproduces the bytes.
		if !bytes.Equal(Append(nil, got), enc) {
			t.Fatalf("event %d: encoding is not canonical", i)
		}
	}
}

func TestDecodeAllRejectsTrailingGarbage(t *testing.T) {
	var buf []byte
	for i, e := range sampleEvents() {
		e.Seq = uint64(i + 1)
		buf = Append(buf, e)
	}
	evs, err := DecodeAll(buf)
	if err != nil {
		t.Fatalf("decode all: %v", err)
	}
	if len(evs) != len(sampleEvents()) {
		t.Fatalf("decoded %d events, want %d", len(evs), len(sampleEvents()))
	}
	if _, err := DecodeAll(append(buf, 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	good := Append(nil, Event{Seq: 1, Round: 3, Type: TypeAdmit, Job: "a", Args: []int64{2}})
	cases := map[string][]byte{
		"empty":              nil,
		"truncated":          good[:len(good)-2],
		"bad type":           {0x01, 0x00, 0xEE, 0x00, 0x00, 0x00},
		"huge string":        {0x01, 0x00, byte(TypeAdmit), 0xFF, 0xFF, 0x7F},
		"non-minimal varint": {0x80, 0x00, 0x00, byte(TypeAdmit), 0x00, 0x00, 0x00},
	}
	for name, b := range cases {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func TestLogSequencesAndHash(t *testing.T) {
	l := NewLog()
	if l.seq != 0 {
		t.Fatalf("fresh log seq = %d, want 0", l.seq)
	}
	for _, e := range sampleEvents() {
		stamped := l.Emit(e)
		if stamped.Seq == 0 {
			t.Fatal("Emit left Seq unset")
		}
	}
	evs := l.Events()
	if len(evs) != len(sampleEvents()) || l.Len() != len(evs) {
		t.Fatalf("log holds %d events, want %d", len(evs), len(sampleEvents()))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d; sequence numbers must be dense", i, e.Seq)
		}
	}
	decoded, err := DecodeAll(l.Bytes())
	if err != nil {
		t.Fatalf("log bytes do not decode: %v", err)
	}
	if len(decoded) != len(evs) {
		t.Fatalf("decoded %d events from log bytes, want %d", len(decoded), len(evs))
	}
	h := fnv.New64a()
	h.Write(l.Bytes())
	if l.Hash() != h.Sum64() {
		t.Fatal("Hash is not the FNV-1a digest of the log bytes")
	}
	if !strings.Contains(l.Text(), "admit job=alpha") {
		t.Fatalf("text rendering missing admit line:\n%s", l.Text())
	}
}

func TestMessageSetOrderAndDedup(t *testing.T) {
	s := NewMessageSet()
	a, err := s.Post(Event{Type: TypeSubmit, Job: "a"})
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	if a.Seq != 1 {
		t.Fatalf("first post stamped %d, want 1", a.Seq)
	}
	b, err := s.Post(Event{Type: TypeKill, Job: "a"})
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	// Retry of a pending message: deduped, not an error.
	if fresh, err := s.Add(a); fresh || err != nil {
		t.Fatalf("retry add: fresh=%v err=%v, want deduped", fresh, err)
	}
	// Same key pending again: deduped.
	if fresh, err := s.Add(Event{Seq: 9, Type: TypeSubmit, Job: "a"}); fresh || err != nil {
		t.Fatalf("key dup: fresh=%v err=%v, want deduped", fresh, err)
	}
	// Same seq, different payload: diverging producer, must error.
	if _, err := s.Add(Event{Seq: b.Seq, Type: TypeKill, Job: "zzz"}); err == nil {
		t.Fatal("conflicting payload at one seq accepted")
	}
	got := s.Ready()
	if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("ready = %v, want seqs [1 2]", got)
	}
	// Replay of an already-delivered seq: deduped.
	if fresh, err := s.Add(a); fresh || err != nil {
		t.Fatalf("stale add: fresh=%v err=%v, want deduped", fresh, err)
	}
	if s.Deduped() != 3 {
		t.Fatalf("deduped = %d, want 3", s.Deduped())
	}
}

func TestMessageSetGapBlocksDelivery(t *testing.T) {
	s := NewMessageSet()
	if fresh, err := s.Add(Event{Seq: 2, Type: TypeSubmit, Job: "b"}); !fresh || err != nil {
		t.Fatalf("add seq 2: fresh=%v err=%v", fresh, err)
	}
	if got := s.Ready(); got != nil {
		t.Fatalf("delivery across a gap: %v", got)
	}
	if s.NextSeq() != 1 {
		t.Fatalf("NextSeq = %d across the gap, want 1", s.NextSeq())
	}
	if fresh, err := s.Add(Event{Seq: 1, Type: TypeSubmit, Job: "a"}); !fresh || err != nil {
		t.Fatalf("add seq 1: fresh=%v err=%v", fresh, err)
	}
	got := s.Ready()
	if len(got) != 2 || got[0].Job != "a" || got[1].Job != "b" {
		t.Fatalf("ready = %v, want a then b", got)
	}
	if s.Pending() != 0 || s.NextSeq() != 3 {
		t.Fatalf("pending = %d, NextSeq = %d after drain; want 0, 3", s.Pending(), s.NextSeq())
	}
}

func TestTypeStrings(t *testing.T) {
	for typ := TypeSubmit; typ <= TypePlan; typ++ {
		if strings.HasPrefix(typ.String(), "Type(") {
			t.Errorf("type %d has no name", typ)
		}
	}
	if !strings.HasPrefix(Type(99).String(), "Type(") {
		t.Error("unknown type should render as Type(n)")
	}
}
