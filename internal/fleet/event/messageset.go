package event

import (
	"errors"
	"fmt"
	"sync"
)

// ErrDuplicate reports a message refused at post time because an
// equivalent (Type, Job) message is already pending delivery — a retry
// the producer may treat as success.
var ErrDuplicate = errors.New("event: duplicate pending message")

// MessageSet collects externally injected messages (dynamic submissions,
// kill requests) and hands them to the round loop deterministically: it
// deduplicates redundant deliveries and releases messages in gap-free
// ascending sequence order. It is the fleet's analogue of a consensus
// core's message set — the boundary where an unordered, at-least-once
// outside world becomes an ordered, exactly-once input stream.
//
// Two dedup rules apply:
//
//   - sequence dedup: a sequence number is accepted once, ever; re-adds
//     (retried deliveries) are dropped and counted;
//   - key dedup: within one undelivered window, a second message with
//     the same (Type, Job) is dropped — a duplicate POST of the same
//     submission must not become two arrivals.
//
// It is safe for concurrent use: the daemon posts from HTTP handlers
// while the round loop drains.
type MessageSet struct {
	mu      sync.Mutex
	seq     uint64 // last stamped sequence number
	next    uint64 // next sequence number to deliver
	pending map[uint64]Event
	keys    map[msgKey]bool // keys pending delivery
	deduped uint64
}

type msgKey struct {
	typ Type
	job string
}

// NewMessageSet returns an empty set; the first posted message is
// stamped with sequence number 1.
func NewMessageSet() *MessageSet {
	return &MessageSet{
		next:    1,
		pending: make(map[uint64]Event),
		keys:    make(map[msgKey]bool),
	}
}

// Post stamps e with the next input sequence number and adds it,
// returning the stamped event. Post is how in-process producers (the
// daemon surface) inject messages; replicas re-adding recorded inputs
// use Add with the original stamp instead.
func (s *MessageSet) Post(e Event) (Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Seq = s.seq + 1
	if err := s.addLocked(e); err != nil {
		return Event{}, err
	}
	return e, nil
}

// Add inserts an already-stamped message. Duplicate sequence numbers and
// duplicate undelivered (Type, Job) keys are dropped (fresh=false);
// a sequence number that collides with a different payload is an error —
// that is not a retry, it is a diverging producer.
func (s *MessageSet) Add(e Event) (fresh bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Seq == 0 {
		return false, fmt.Errorf("event: message without a sequence number: %s", e)
	}
	if e.Seq < s.next {
		// Already delivered; a retry of old traffic.
		s.deduped++
		return false, nil
	}
	if prev, ok := s.pending[e.Seq]; ok {
		if !equalPayload(prev, e) {
			return false, fmt.Errorf("event: seq %d re-added with different payload", e.Seq)
		}
		s.deduped++
		return false, nil
	}
	if s.keys[msgKey{e.Type, e.Job}] {
		s.deduped++
		return false, nil
	}
	if err := s.addLocked(e); err != nil {
		return false, err
	}
	return true, nil
}

func (s *MessageSet) addLocked(e Event) error {
	if !validType(e.Type) {
		return fmt.Errorf("event: invalid message type %d", e.Type)
	}
	if s.keys[msgKey{e.Type, e.Job}] {
		s.deduped++
		return fmt.Errorf("%w: %s for job %q", ErrDuplicate, e.Type, e.Job)
	}
	s.pending[e.Seq] = e
	s.keys[msgKey{e.Type, e.Job}] = true
	if e.Seq > s.seq {
		s.seq = e.Seq
	}
	return nil
}

// Ready removes and returns the contiguous run of deliverable messages
// starting at the next expected sequence number, in ascending order. A
// gap (a stamped-but-not-yet-added message) stops delivery at the gap so
// no message is ever reordered past a missing predecessor.
func (s *MessageSet) Ready() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for {
		e, ok := s.pending[s.next]
		if !ok {
			break
		}
		delete(s.pending, s.next)
		delete(s.keys, msgKey{e.Type, e.Job})
		out = append(out, e)
		s.next++
	}
	return out
}

// Pending returns the number of undelivered messages.
func (s *MessageSet) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// NextSeq returns the sequence number delivery is waiting on.
func (s *MessageSet) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// Deduped returns how many redundant deliveries were dropped.
func (s *MessageSet) Deduped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deduped
}
