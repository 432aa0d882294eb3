package event

import (
	"bytes"
	"hash/fnv"
	"math/rand"
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

// TestRunningHashMatchesBytes: after every Emit of a random event
// sequence, the running Hash equals the FNV-1a digest of Bytes().
func TestRunningHashMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLog()
	check := func(step int) {
		h := fnv.New64a()
		h.Write(l.Bytes())
		if got, want := l.Hash(), h.Sum64(); got != want {
			t.Fatalf("after %d events: Hash = %016x, FNV-1a of Bytes = %016x", step, got, want)
		}
	}
	check(0)
	for step := 1; step <= 500; step++ {
		e := Event{
			Round: rng.Intn(1000) - 10,
			Type:  Type(1 + rng.Intn(int(TypePlan))),
			Job:   strings.Repeat("j", rng.Intn(6)),
			Note:  strings.Repeat("n", rng.Intn(40)),
		}
		for k := rng.Intn(5); k > 0; k-- {
			e.Args = append(e.Args, rng.Int63n(1<<40)-1<<39)
		}
		l.Emit(e)
		check(step)
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

// equalPayload reports whether two events carry the same content
// (everything but Seq).
func equalPayload(a, b Event) bool {
	if a.Round != b.Round || a.Type != b.Type || a.Job != b.Job || a.Note != b.Note {
		return false
	}
	if len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}
