package fleet

import (
	"fmt"
	"math"
	"strings"

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
// Every controller owns a private store.DB (seeded at admission), so the
// per-round parallel decide fan-out never shares a history database;
// harvesting copies fresh records into the archive sequentially, in
// admission order, which keeps GP replay — an order-dependent
// computation — deterministic.

// minHarvestUtil drops low-utilization capacity observations from the
// archive: below it the Eq. 8 sample says more about the offered load
// than about the operator's capacity (mirrors core's MinObserveUtil).
const minHarvestUtil = 0.15

// fingerprint is the archive key for a workload spec.
func fingerprint(spec *workload.Spec) string {
	var b strings.Builder
	b.WriteString(spec.Name)
	b.WriteByte('|')
	for i := 0; i < spec.Graph.NumOperators(); i++ {
		b.WriteString(spec.Graph.OperatorName(i))
		b.WriteByte(',')
	}
	fmt.Fprintf(&b, "|%d|%g", spec.MaxTasks, spec.YMax)
	return b.String()
}

// warmArchive accumulates harvested capacity observations per workload
// kind. It is only touched from the manager's sequential round loop.
type warmArchive struct {
	byKind map[string]*store.DB
}

func newWarmArchive() *warmArchive {
	return &warmArchive{byKind: make(map[string]*store.DB)}
}

// warmStartMaxPerOperator caps how many history records per operator are
// replayed into a joining job's GPs (replay is O(n²)).
const warmStartMaxPerOperator = 48

// seed builds a joining job's private history DB. When the archive holds
// compatible history (and warm-start is enabled), up to
// warmStartMaxPerOperator of the most recent records per operator are
// copied in; core.New replays them into the job's GPs. Returns the DB and
// how many records were seeded.
func (a *warmArchive) seed(spec *workload.Spec, disabled bool) (*store.DB, int) {
	db := store.New()
	if disabled {
		return db, 0
	}
	arch, ok := a.byKind[fingerprint(spec)]
	if !ok {
		return db, 0
	}
	n := 0
	for i := 0; i < spec.Graph.NumOperators(); i++ {
		name := spec.Graph.OperatorName(i)
		hist := arch.History(name)
		if len(hist) > warmStartMaxPerOperator {
			hist = hist[len(hist)-warmStartMaxPerOperator:]
		}
		for _, r := range hist {
			if err := db.Append(r); err != nil {
				// Records were validated on the way into the archive; an
				// append failure here would be a programming error.
				continue
			}
			n++
		}
	}
	return db, n
}

// harvest copies each running job's fresh history records into its kind
// archive. Jobs are visited in admission order and each job's records in
// append order, so archive contents — and therefore future warm-start
// replays — are deterministic.
func (m *Manager) harvest() {
	if m.cfg.DisableWarmStart {
		return
	}
	for _, js := range m.running {
		if js.db == nil {
			continue
		}
		key := fingerprint(js.spec.Workload)
		arch, ok := m.archive.byKind[key]
		if !ok {
			arch = store.New()
			m.archive.byKind[key] = arch
		}
		for i := 0; i < js.spec.Workload.Graph.NumOperators(); i++ {
			name := js.spec.Workload.Graph.OperatorName(i)
			hist := js.db.History(name)
			from := js.harvested[name]
			for _, r := range hist[from:] {
				if !harvestable(r) {
					continue
				}
				if err := arch.Append(r); err != nil {
					continue
				}
				m.reg.Inc("fleet_warmstart_harvested")
			}
			js.harvested[name] = len(hist)
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
