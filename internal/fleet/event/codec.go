package event

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unicode/utf8"
)

// Canonical binary codec. Layout, in order:
//
//	seq    uvarint
//	round  varint
//	type   1 byte
//	job    uvarint length + bytes
//	nargs  uvarint, then each arg as varint
//	note   uvarint length + bytes
//
// Minimal-width varints make the encoding canonical: one event has
// exactly one byte representation, so trace equality is payload
// equality. Decode enforces the bounds below and rejects trailing
// garbage at the event level, which is what lets the fuzz target assert
// Encode∘Decode is the identity on every accepted input.

const (
	// MaxStringLen bounds Job and Note so a corrupt length prefix cannot
	// ask Decode for gigabytes.
	MaxStringLen = 4096
	// MaxArgs bounds the argument vector (the widest real payload is a
	// per-operator task vector).
	MaxArgs = 1024
)

// Append encodes e and appends the bytes to buf, returning the extended
// slice (allocation-free when buf has capacity).
func Append(buf []byte, e Event) []byte {
	buf = binary.AppendUvarint(buf, e.Seq)
	buf = binary.AppendVarint(buf, int64(e.Round))
	buf = append(buf, byte(e.Type))
	buf = binary.AppendUvarint(buf, uint64(len(e.Job)))
	buf = append(buf, e.Job...)
	buf = binary.AppendUvarint(buf, uint64(len(e.Args)))
	for _, a := range e.Args {
		buf = binary.AppendVarint(buf, a)
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.Note)))
	buf = append(buf, e.Note...)
	return buf
}

var (
	errShort        = errors.New("event: truncated encoding")
	errNonCanonical = errors.New("event: non-minimal varint")
)

// uvarint decodes a minimal-width uvarint, rejecting the redundant
// encodings binary.Uvarint accepts (e.g. 0x80 0x00 for zero) so one
// event has exactly one byte form.
func uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, errShort
	}
	if n > 1 && b[n-1] == 0 {
		return 0, 0, errNonCanonical
	}
	return v, n, nil
}

func varint(b []byte) (int64, int, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, 0, errShort
	}
	if n > 1 && b[n-1] == 0 {
		return 0, 0, errNonCanonical
	}
	return v, n, nil
}

// Decode reads one event from the front of b, returning the event and
// the number of bytes consumed.
func Decode(b []byte) (Event, int, error) {
	var e Event
	off := 0
	seq, n, err := uvarint(b[off:])
	if err != nil {
		return e, 0, fmt.Errorf("event: seq: %w", err)
	}
	off += n
	round, n, err := varint(b[off:])
	if err != nil {
		return e, 0, fmt.Errorf("event: round: %w", err)
	}
	if round < math.MinInt32 || round > math.MaxInt32 {
		return e, 0, fmt.Errorf("event: round %d out of range", round)
	}
	off += n
	if off >= len(b) {
		return e, 0, fmt.Errorf("event: type: %w", errShort)
	}
	typ := Type(b[off])
	if !validType(typ) {
		return e, 0, fmt.Errorf("event: unknown type %d", b[off])
	}
	off++
	job, n, err := decodeString(b[off:], "job")
	if err != nil {
		return e, 0, err
	}
	off += n
	nargs, n, err := uvarint(b[off:])
	if err != nil {
		return e, 0, fmt.Errorf("event: arg count: %w", err)
	}
	if nargs > MaxArgs {
		return e, 0, fmt.Errorf("event: %d args exceeds limit %d", nargs, MaxArgs)
	}
	off += n
	var args []int64
	if nargs > 0 {
		args = make([]int64, nargs)
		for i := range args {
			v, n, err := varint(b[off:])
			if err != nil {
				return e, 0, fmt.Errorf("event: arg %d: %w", i, err)
			}
			args[i] = v
			off += n
		}
	}
	note, n, err := decodeString(b[off:], "note")
	if err != nil {
		return e, 0, err
	}
	off += n
	e = Event{Seq: seq, Round: int(round), Type: typ, Job: job, Args: args, Note: note}
	return e, off, nil
}

func decodeString(b []byte, field string) (string, int, error) {
	l, n, err := uvarint(b)
	if err != nil {
		return "", 0, fmt.Errorf("event: %s length: %w", field, err)
	}
	if l > MaxStringLen {
		return "", 0, fmt.Errorf("event: %s length %d exceeds limit %d", field, l, MaxStringLen)
	}
	if uint64(len(b)-n) < l {
		return "", 0, fmt.Errorf("event: %s: %w", field, errShort)
	}
	s := string(b[n : n+int(l)])
	if !utf8.ValidString(s) {
		return "", 0, fmt.Errorf("event: %s is not valid UTF-8", field)
	}
	return s, n + int(l), nil
}

// DecodeAll decodes a concatenated trace (the Log.Bytes form) back into
// its event list, rejecting trailing bytes.
func DecodeAll(b []byte) ([]Event, error) {
	var out []Event
	for len(b) > 0 {
		e, n, err := Decode(b)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", len(out), err)
		}
		out = append(out, e)
		b = b[n:]
	}
	return out, nil
}
