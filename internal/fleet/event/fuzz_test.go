package event

import (
	"bytes"
	"testing"
	"unicode/utf8"
)

// FuzzFleetEvent drives the codec with arbitrary inputs and checks the
// invariants the control plane's determinism rests on:
//
//  1. codec round-trip: every constructible event survives
//     Encode→Decode unchanged, and the encoding is canonical (the only
//     byte form that decodes to that event);
//  2. decode safety: arbitrary bytes either fail to decode or decode to
//     an event whose re-encoding is accepted and equal under re-decode.
func FuzzFleetEvent(f *testing.F) {
	f.Add(uint64(1), 0, byte(TypeAdmit), "alpha", int64(4), int64(7), "grant", []byte{})
	f.Add(uint64(9), 3, byte(TypeDecide), "job-001", int64(2), int64(3), "", []byte{0x01, 0x00, 0x05})
	f.Add(uint64(0), -1, byte(0xEE), "", int64(-1), int64(1<<40), "why", []byte{0x80, 0x00})
	f.Fuzz(func(t *testing.T, seq uint64, round int, typ byte, job string, a0, a1 int64, note string, raw []byte) {
		// --- codec round-trip on the constructed event ---
		if validType(Type(typ)) && len(job) <= MaxStringLen && len(note) <= MaxStringLen &&
			utf8.ValidString(job) && utf8.ValidString(note) &&
			round >= -1<<31 && round < 1<<31 {
			want := Event{Seq: seq, Round: round, Type: Type(typ), Job: job, Args: []int64{a0, a1}, Note: note}
			enc := Append(nil, want)
			got, n, err := Decode(enc)
			if err != nil {
				t.Fatalf("decode of valid encoding failed: %v", err)
			}
			if n != len(enc) {
				t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
			}
			if got.Seq != want.Seq || !equalPayload(got, want) {
				t.Fatalf("round-trip mismatch:\n got %s\nwant %s", got, want)
			}
			if !bytes.Equal(Append(nil, got), enc) {
				t.Fatal("re-encoding diverged from original encoding")
			}
		}

		// --- decode safety on arbitrary bytes ---
		if e, n, err := Decode(raw); err == nil {
			if n <= 0 || n > len(raw) {
				t.Fatalf("decode reported %d consumed bytes of %d", n, len(raw))
			}
			re := Append(nil, e)
			e2, _, err := Decode(re)
			if err != nil {
				t.Fatalf("re-encoding of decoded event does not decode: %v", err)
			}
			if e2.Seq != e.Seq || !equalPayload(e2, e) {
				t.Fatal("decode∘encode∘decode is not stable")
			}
		}
	})
}
