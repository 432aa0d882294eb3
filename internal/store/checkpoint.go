package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Checkpoint is a generic, versioned, sectioned snapshot envelope: each
// subsystem that needs durable state (the fleet arbiter, the daemon's
// input log) serializes itself into a named JSON section, and the whole
// envelope round-trips through the same Snapshot/Restore contract the
// history DB uses. Sections are opaque to the envelope, so a replica can
// restore only the sections it understands and verify the rest by
// inspection.
//
// The wire form is deterministic: encoding/json writes map keys in
// sorted order, so the same state always produces the same bytes — a
// checkpoint diff is therefore a state diff.
type Checkpoint struct {
	// Kind names the producing subsystem (e.g. "fleet"); Restore refuses
	// an envelope of the wrong kind so a fleet replica cannot boot from a
	// history-DB snapshot.
	Kind string
	// Version guards the section schema; bump it when a section's layout
	// changes incompatibly.
	Version int

	sections map[string]json.RawMessage
}

// checkpointVersion is the current envelope schema version.
const checkpointVersion = 1

// NewCheckpoint returns an empty envelope of the given kind.
func NewCheckpoint(kind string) *Checkpoint {
	return &Checkpoint{
		Kind:     kind,
		Version:  checkpointVersion,
		sections: make(map[string]json.RawMessage),
	}
}

// Put serializes v into the named section, replacing any previous value.
func (c *Checkpoint) Put(section string, v any) error {
	if section == "" {
		return errors.New("store: checkpoint section without a name")
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: checkpoint section %q: %w", section, err)
	}
	if c.sections == nil {
		c.sections = make(map[string]json.RawMessage)
	}
	c.sections[section] = b
	return nil
}

// Get deserializes the named section into v. Missing sections error so a
// replica notices a truncated envelope instead of restoring zero values.
func (c *Checkpoint) Get(section string, v any) error {
	raw, ok := c.sections[section]
	if !ok {
		return fmt.Errorf("store: checkpoint has no section %q", section)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("store: checkpoint section %q: %w", section, err)
	}
	return nil
}

// Has reports whether the named section is present.
func (c *Checkpoint) Has(section string) bool {
	_, ok := c.sections[section]
	return ok
}

// checkpointWire is the JSON envelope layout.
type checkpointWire struct {
	Kind     string                     `json:"kind"`
	Version  int                        `json:"version"`
	Sections map[string]json.RawMessage `json:"sections"`
}

// Snapshot writes the envelope as indented JSON (sorted keys, so the
// bytes are a pure function of the state).
func (c *Checkpoint) Snapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(checkpointWire{Kind: c.Kind, Version: c.Version, Sections: c.sections})
}

// RestoreCheckpoint reads a Snapshot stream and verifies its kind.
func RestoreCheckpoint(r io.Reader, wantKind string) (*Checkpoint, error) {
	var wire checkpointWire
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("store: restore checkpoint: %w", err)
	}
	if wire.Kind != wantKind {
		return nil, fmt.Errorf("store: checkpoint kind %q, want %q", wire.Kind, wantKind)
	}
	if wire.Version != checkpointVersion {
		return nil, fmt.Errorf("store: checkpoint version %d, want %d", wire.Version, checkpointVersion)
	}
	if wire.Sections == nil {
		wire.Sections = make(map[string]json.RawMessage)
	}
	return &Checkpoint{Kind: wire.Kind, Version: wire.Version, sections: wire.Sections}, nil
}
