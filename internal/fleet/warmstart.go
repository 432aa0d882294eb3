package fleet

import (
	"math"
	"strconv"

	"dragster/internal/store"
	"dragster/internal/workload"
)

// Cross-job GP warm-start: when a tenant departs (or merely keeps
// running), the capacity observations its controller collected are
// harvested into a per-workload-kind archive; when a DAG-compatible
// tenant arrives later, its per-operator GPs are seeded from that
// archive and it skips the cold-start exploration phase.
//
// Compatibility is structural: two jobs share an archive iff their
// workload fingerprint matches — same workload name, same operator
// names in the same order, same parallelism grid bound, and same
// capacity scale. Operator capacity curves are hidden from controllers,
// so the fingerprint is the strongest safe notion of "the same physics"
// the control plane can check.
//
// The archive's records reach a joining controller through
// core.Config.History only; they never enter its store.DB, so they
// cannot be harvested back into the archive. Every controller owns a
// private DB that holds its own evidence (the plan's probes, then one
// record per operator per slot), so the per-round parallel decide
// fan-out never shares a history database. Every round harvesting
// drains each DB and moves the fresh records into the archive
// sequentially, in admission order, which keeps GP replay — an
// order-dependent computation — deterministic.

// minHarvestUtil drops low-utilization capacity observations from the
// archive: below it the Eq. 8 sample says more about the offered load
// than about the operator's capacity (mirrors core's minObserveUtil).
const minHarvestUtil = 0.15

// fingerprint is the archive key for a workload spec.
func fingerprint(spec *workload.Spec) string {
	b := append(make([]byte, 0, 64), spec.Name...)
	b = append(b, '|')
	for i := 0; i < spec.Graph.NumOperators(); i++ {
		b = append(b, spec.Graph.OperatorName(i)...)
		b = append(b, ',')
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(spec.MaxTasks), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, spec.YMax, 'g', -1, 64) // fmt's %g
	return string(b)
}

// warmStartMaxPerOperator caps how many history records per operator are
// replayed into a joining job's GPs: the most recent ones.
const warmStartMaxPerOperator = 48

// warmArchive keeps, per workload kind and operator, the most recent
// warmStartMaxPerOperator harvested capacity observations, oldest first.
// That is exactly the set seed replays, so the archive's size depends on
// the kinds and operators seen, not on the fleet's age. It is only
// touched from the manager's sequential round loop.
type warmArchive struct {
	byKind map[string]map[string][]store.Record
}

func newWarmArchive() *warmArchive {
	return &warmArchive{byKind: make(map[string]map[string][]store.Record)}
}

// add appends r to its operator's window in the kind archive, dropping
// the oldest record once the window is full.
func (a *warmArchive) add(kind string, r store.Record) {
	ops, ok := a.byKind[kind]
	if !ok {
		ops = make(map[string][]store.Record)
		a.byKind[kind] = ops
	}
	recs := append(ops[r.Operator], r)
	if len(recs) > warmStartMaxPerOperator {
		recs = recs[1:]
	}
	ops[r.Operator] = recs
}

// seed returns the compatible history a joining job's GPs replay: the
// records archived under kind, spec's fingerprint, for each operator, in
// operator order, in a fresh slice. The records themselves are shared
// with the archive; core.New only reads them, and the GPs copy each
// configuration they keep.
func (a *warmArchive) seed(kind string, spec *workload.Spec) []store.Record {
	ops := a.byKind[kind]
	var recs []store.Record
	for i := 0; i < spec.Graph.NumOperators(); i++ {
		recs = append(recs, ops[spec.Graph.OperatorName(i)]...)
	}
	return recs
}

// harvest drains each running job's history DB, so a DB never holds
// more than one round of records, and adds the harvestable ones to the
// job's kind archive. Jobs are visited in admission order and each job's
// records in append order, so archive contents — and therefore future
// warm-start replays — are deterministic.
func (m *Manager) harvest() {
	for _, js := range m.running {
		m.drained = js.db.DrainInto(m.drained[:0])
		for _, r := range m.drained {
			if !harvestable(r) {
				continue
			}
			m.archive.add(js.kind, r)
			m.reg.Inc("fleet_warmstart_harvested")
		}
	}
}

// harvestable keeps only observations that genuinely pin down capacity:
// positive, finite, and taken under meaningful utilization.
func harvestable(r store.Record) bool {
	return r.CapacityObs > 0 &&
		!math.IsNaN(r.CapacityObs) && !math.IsInf(r.CapacityObs, 0) &&
		r.Util >= minHarvestUtil
}
