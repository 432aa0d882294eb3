// Package store implements Dragster's Database component: the
// timestamped history of (configuration, throughput, observed capacity,
// utilization) tuples the optimization engine learns from, plus the
// candidate-grid constructors. The store can snapshot itself to JSON
// and restore, which is what lets a restarted controller warm-start its
// Gaussian processes ("learn from history").
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Record is one observation of one operator during one decision slot.
type Record struct {
	Slot        int       `json:"slot"`
	Operator    string    `json:"operator"`
	Config      []float64 `json:"config"`       // e.g. [tasks] or [tasks, cpuMilli]
	Throughput  float64   `json:"throughput"`   // application throughput that slot
	CapacityObs float64   `json:"capacity_obs"` // Eq. 8 sample
	Util        float64   `json:"util"`
}

// DB is the in-memory database: an append-and-drain log. It is safe for
// concurrent use.
type DB struct {
	mu      sync.RWMutex
	records []Record
	// configs is the block Append copies configurations into, carved one
	// record at a time; a full block is left to the records that hold it.
	configs []float64
}

// configBlock is how many configuration values one carved block holds.
const configBlock = 64

// New returns an empty database.
func New() *DB { return &DB{} }

// check rejects a record the GPs could not learn from.
func (r Record) check() error {
	if r.Operator == "" {
		return errors.New("store: record without operator")
	}
	if len(r.Config) == 0 {
		return errors.New("store: record without config")
	}
	return nil
}

// Append stores a record. The config slice is copied, into a block the
// database shares between records, so most records allocate nothing.
func (d *DB) Append(r Record) error {
	if err := r.check(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if cap(d.configs)-len(d.configs) < len(r.Config) {
		d.configs = make([]float64, 0, max(configBlock, len(r.Config)))
	}
	n := len(d.configs)
	d.configs = append(d.configs, r.Config...)
	r.Config = d.configs[n:len(d.configs):len(d.configs)]
	d.records = append(d.records, r)
	return nil
}

// DrainInto appends every record to dst in append order, empties the
// database and returns the extended dst. Unlike Drain it keeps the
// database's record storage for the records that follow.
func (d *DB) DrainInto(dst []Record) []Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	dst = append(dst, d.records...)
	clear(d.records)
	d.records = d.records[:0]
	return dst
}

// Drain returns every record in append order and empties the database.
// The caller owns the returned records.
func (d *DB) Drain() []Record {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.records
	d.records = nil
	return out
}

// Len returns the total number of records.
func (d *DB) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.records)
}

// snapshot is the JSON wire format. Older snapshots also carry a
// "candidates" object, which Restore ignores.
type snapshot struct {
	Records []Record `json:"records"`
}

// Snapshot writes the full database as JSON.
func (d *DB) Snapshot(w io.Writer) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snapshot{Records: d.records})
}

// Restore replaces the database contents from a Snapshot stream. A
// stream holding any record Append would reject is rejected whole, and
// the database is left unchanged.
func (d *DB) Restore(r io.Reader) error {
	var s snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return fmt.Errorf("store: restore: %w", err)
	}
	for i, rec := range s.Records {
		if err := rec.check(); err != nil {
			return fmt.Errorf("store: restore: record %d: %w", i, err)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.records = s.Records
	return nil
}

// TaskGrid returns the 1-D candidate list {min, ..., max} task counts, the
// paper's configuration space (1..10 tasks per operator).
func TaskGrid(min, max int) ([][]float64, error) {
	if min < 1 || max < min {
		return nil, fmt.Errorf("store: invalid task grid [%d, %d]", min, max)
	}
	out := make([][]float64, 0, max-min+1)
	for n := min; n <= max; n++ {
		out = append(out, []float64{float64(n)})
	}
	return out, nil
}

// Grid2D returns the cross product {t0..t1} × {c0..c1 step} as 2-D
// candidates (tasks, CPU millicores), exercising the multi-dimensional
// configuration extension.
func Grid2D(t0, t1, c0, c1, step int) ([][]float64, error) {
	if t0 < 1 || t1 < t0 || c0 < 1 || c1 < c0 || step < 1 {
		return nil, fmt.Errorf("store: invalid 2-D grid [%d %d]×[%d %d]/%d", t0, t1, c0, c1, step)
	}
	var out [][]float64
	for t := t0; t <= t1; t++ {
		for c := c0; c <= c1; c += step {
			out = append(out, []float64{float64(t), float64(c)})
		}
	}
	return out, nil
}
