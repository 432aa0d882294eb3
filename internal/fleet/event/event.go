// Package event is the fleet control plane's message core: typed
// control events with deterministic sequence numbers, a canonical binary
// codec and an append-only Log (the replayable event trace). Externally
// injected messages (submissions, kills) are stamped and queued by the
// fleet manager itself: it is their only producer and runs under one
// lock, so a plain ordered queue delivers them.
//
// The design follows the deterministic message-driven cores of BFT-style
// consensus engines (a core handler consumes an ordered message set and
// appends to a replayable log): every state transition of the fleet —
// arrival, admission, rejection, budget grant, shrink, decision,
// departure — is an Event stamped with the next sequence number at the
// moment the transition is applied, never from inside a worker
// goroutine. The decide fan-out therefore changes which goroutine
// computes a decision but not the order transitions commit, which is
// what makes the headline invariant hold: a fixed seed produces a
// byte-identical event trace at any worker count.
package event

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
)

// Type enumerates the fleet control-plane transitions.
type Type uint8

const (
	// TypeSubmit is an external input: a dynamic job submission.
	TypeSubmit Type = iota + 1
	// TypeKill is an external input: a kill request for a named job.
	TypeKill
	// TypeRoundBegin opens a fleet round; Args[0] = running tenants.
	TypeRoundBegin
	// TypeArrive moves a due job into the admission queue.
	TypeArrive
	// TypeAdmit grants a queued job its admission allocation; Args[0] =
	// the Σ-tasks grant.
	TypeAdmit
	// TypeReject refuses a submission (Note carries the reason).
	TypeReject
	// TypeDepart cancels a tenant (scheduled departure or kill).
	TypeDepart
	// TypeGrant is an arbiter budget change; Args = [from, to],
	// Note = formatted dual price.
	TypeGrant
	// TypeShrink trims a tenant below its reduced budget; Args[0] = the
	// post-trim Σ tasks.
	TypeShrink
	// TypeDecide commits one tenant's round decision; Args = the desired
	// per-operator task vector.
	TypeDecide
	// TypeSkip records a tenant skipping its decision round (no fresh
	// metrics sample).
	TypeSkip
	// TypeRoundEnd closes a fleet round; Args[0] = Σ effective tasks.
	TypeRoundEnd
	// TypePlan journals a capacity plan built at admission; Args = the
	// planned per-operator task floors, Note = plan digest + probe count.
	TypePlan
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeSubmit:
		return "submit"
	case TypeKill:
		return "kill"
	case TypeRoundBegin:
		return "round_begin"
	case TypeArrive:
		return "arrive"
	case TypeAdmit:
		return "admit"
	case TypeReject:
		return "reject"
	case TypeDepart:
		return "depart"
	case TypeGrant:
		return "grant"
	case TypeShrink:
		return "shrink"
	case TypeDecide:
		return "decide"
	case TypeSkip:
		return "skip"
	case TypeRoundEnd:
		return "round_end"
	case TypePlan:
		return "plan"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// validType reports whether t is one of the declared event types.
func validType(t Type) bool { return t >= TypeSubmit && t <= TypePlan }

// Event is one fleet control-plane transition. Seq is assigned by the
// Log (or an Inbox) at commit time and is globally unique and dense
// within its stream. Events deliberately carry no worker or goroutine
// identity: the trace must be byte-identical at every worker count, so
// anything scheduling-dependent belongs in telemetry, not here.
type Event struct {
	Seq   uint64
	Round int
	Type  Type
	Job   string
	Args  []int64
	Note  string
}

// String renders the event as one human-readable trace line.
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(strconv.FormatUint(e.Seq, 10))
	b.WriteByte(' ')
	b.WriteString("r=")
	b.WriteString(strconv.Itoa(e.Round))
	b.WriteByte(' ')
	b.WriteString(e.Type.String())
	if e.Job != "" {
		b.WriteString(" job=")
		b.WriteString(e.Job)
	}
	if len(e.Args) > 0 {
		b.WriteString(" args=")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatInt(a, 10))
		}
	}
	if e.Note != "" {
		b.WriteString(" note=")
		b.WriteString(strconv.Quote(e.Note))
	}
	return b.String()
}

// Log is the append-only, sequence-stamped event history — the fleet's
// replayable trace. Emission is serialized by a mutex but must only
// happen from the manager's sequential commit path; the lock exists so
// read-side accessors (daemon surface, tests) are safe during a run.
type Log struct {
	mu  sync.Mutex
	seq uint64
	evs []Event
}

// NewLog returns an empty log whose first event will carry Seq 1.
func NewLog() *Log { return &Log{} }

// Emit stamps e with the next sequence number and appends it.
func (l *Log) Emit(e Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	l.evs = append(l.evs, e)
	return e
}

// Len returns the number of committed events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.evs)
}

// Events returns a copy of the committed history in commit order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.evs))
	copy(out, l.evs)
	return out
}

// Bytes returns the canonical binary encoding of the whole history —
// the byte string golden-trace tests compare across worker counts and
// across a failover.
func (l *Log) Bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf []byte
	for _, e := range l.evs {
		buf = Append(buf, e)
	}
	return buf
}

// Text renders the history one event per line (the JSONL-style golden
// file form: stable, diffable, human-readable).
func (l *Log) Text() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for _, e := range l.evs {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Hash returns the FNV-1a digest of the canonical encoding; checkpoints
// store it so a replica can prove its replayed prefix matches the
// primary's trace without shipping the whole log.
func (l *Log) Hash() uint64 {
	h := fnv.New64a()
	h.Write(l.Bytes())
	return h.Sum64()
}
