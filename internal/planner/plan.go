package planner

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"dragster/internal/store"
)

// OperatorCurve is one operator's fitted capacity curve: posterior mean
// and standard deviation indexed by task count (entry n-1 = n tasks).
// Capacity units are emitted-output tuples/s, the same units the DAG's
// throughput evaluation consumes.
type OperatorCurve struct {
	Operator string    `json:"operator"`
	Mu       []float64 `json:"mu"`
	Sigma    []float64 `json:"sigma"`
}

// Plan is the planner's answer: the per-operator task floors a job needs
// to sustain its target rate, with the evidence behind them.
type Plan struct {
	// Workload names the planned workload spec.
	Workload string `json:"workload"`
	// Seed is the probe-simulation seed the plan was built from.
	Seed int64 `json:"seed"`
	// TargetRates is the sustained per-source load the plan covers.
	TargetRates []float64 `json:"target_rates"`
	// SLOFraction and Beta echo the planner's fixed feasibility bar and
	// confidence-bound width.
	SLOFraction float64 `json:"slo_fraction"`
	Beta        float64 `json:"beta"`
	// Tasks is the per-operator admission floor; TotalTasks its sum.
	Tasks      []int `json:"tasks"`
	TotalTasks int   `json:"total_tasks"`
	// PredictedThroughput is the lower-confidence-bound steady throughput
	// at Tasks; TargetThroughput the unconstrained sink rate at the
	// target load. Feasible ⇔ predicted ≥ SLOFraction × target.
	PredictedThroughput float64 `json:"predicted_throughput"`
	TargetThroughput    float64 `json:"target_throughput"`
	Feasible            bool    `json:"feasible"`
	// CostPerHour is the predicted steady-state dollar cost of running
	// the plan's allocation.
	CostPerHour float64 `json:"cost_per_hour"`
	// ProbeCost is the dollar cost of the probe schedule itself (task
	// seconds across every probe topology, priced like the live cluster).
	// Probes run on the scaled-down simulator, not the production
	// cluster, so this is reported context, not tenant-attributed spend.
	ProbeCost float64 `json:"probe_cost"`
	// Curves are the fitted per-operator capacity curves (confidence
	// bands included); Probes the full probe schedule that produced them.
	Curves []OperatorCurve `json:"curves"`
	Probes []Probe         `json:"probes"`
}

// Encode returns the canonical binary encoding of the plan. Two plans
// are identical iff their encodings are byte-equal — the property the
// determinism tests pin (floats are encoded as IEEE-754 bit patterns, so
// equality is exact, not approximate).
func (p *Plan) Encode() []byte {
	var buf []byte
	buf = appendString(buf, p.Workload)
	buf = appendInt64(buf, p.Seed)
	buf = appendFloats(buf, p.TargetRates)
	buf = appendFloat(buf, p.SLOFraction)
	buf = appendFloat(buf, p.Beta)
	buf = appendInt64(buf, int64(len(p.Tasks)))
	for _, n := range p.Tasks {
		buf = appendInt64(buf, int64(n))
	}
	buf = appendInt64(buf, int64(p.TotalTasks))
	buf = appendFloat(buf, p.PredictedThroughput)
	buf = appendFloat(buf, p.TargetThroughput)
	if p.Feasible {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendFloat(buf, p.CostPerHour)
	buf = appendFloat(buf, p.ProbeCost)
	buf = appendInt64(buf, int64(len(p.Curves)))
	for _, c := range p.Curves {
		buf = appendString(buf, c.Operator)
		buf = appendFloats(buf, c.Mu)
		buf = appendFloats(buf, c.Sigma)
	}
	buf = appendInt64(buf, int64(len(p.Probes)))
	for _, pr := range p.Probes {
		buf = appendString(buf, pr.Operator)
		buf = appendInt64(buf, int64(pr.OpIndex))
		buf = appendInt64(buf, int64(pr.Tasks))
		buf = appendFloat(buf, pr.Capacity)
		buf = appendFloat(buf, pr.Util)
		if pr.Saturated {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// Digest returns the FNV-1a hash of the canonical encoding — the plan's
// identity in fleet events and checkpoints.
func (p *Plan) Digest() uint64 {
	h := fnv.New64a()
	h.Write(p.Encode())
	return h.Sum64()
}

// DigestHex renders the digest as a fixed-width hex string.
func (p *Plan) DigestHex() string { return fmt.Sprintf("%016x", p.Digest()) }

// Records converts the saturated probes into warm-start history records:
// seeding a controller's store.DB with them replays the probed curve
// into its per-operator GPs (core.New's warm-start path). Slots are
// negative — the observations predate the job's first round.
func (p *Plan) Records() []store.Record {
	out := make([]store.Record, 0, len(p.Probes))
	for k, pr := range p.Probes {
		if !pr.Saturated {
			continue
		}
		out = append(out, store.Record{
			Slot:        -(len(p.Probes) - k), // probe order, all pre-launch
			Operator:    pr.Operator,
			Config:      []float64{float64(pr.Tasks)},
			Throughput:  pr.Capacity,
			CapacityObs: pr.Capacity,
			Util:        pr.Util,
		})
	}
	return out
}

// String renders a compact human-readable summary.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s tasks=%v total=%d predicted=%.0f target=%.0f feasible=%v cost=$%.2f/h probes=%d",
		p.Workload, p.Tasks, p.TotalTasks, p.PredictedThroughput, p.TargetThroughput, p.Feasible, p.CostPerHour, len(p.Probes))
	return b.String()
}

func appendInt64(buf []byte, v int64) []byte {
	u := uint64(v)
	return append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

func appendFloat(buf []byte, v float64) []byte {
	return appendInt64(buf, int64(math.Float64bits(v)))
}

func appendFloats(buf []byte, vs []float64) []byte {
	buf = appendInt64(buf, int64(len(vs)))
	for _, v := range vs {
		buf = appendFloat(buf, v)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = appendInt64(buf, int64(len(s)))
	return append(buf, s...)
}
