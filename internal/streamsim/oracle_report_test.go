package streamsim_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dragster/internal/dag"
	"dragster/internal/dag/dagtest"
	"dragster/internal/monitor"
	"dragster/internal/stats"
	"dragster/internal/streamsim"
)

// refAccumulator is the reference for the engine's totals and the report
// built from them: the monitor's slot accumulator as it was when it
// folded each RefStep record into its own sums after the tick.
type refAccumulator struct {
	slot, seconds         int
	ticks, active, paused int
	sinkSum, latSum       float64
	inSum, outSum         []float64
	consSum, utilSum      []float64
	rateSum               []float64
	lastOps               []streamsim.RefOp
}

func newRefAccumulator(slot, nOps, nSources, seconds int) *refAccumulator {
	return &refAccumulator{
		slot: slot, seconds: seconds,
		inSum: make([]float64, nOps), outSum: make([]float64, nOps),
		consSum: make([]float64, nOps), utilSum: make([]float64, nOps),
		rateSum: make([]float64, nSources),
	}
}

func (a *refAccumulator) tick(rates []float64, st streamsim.RefTick) {
	a.ticks++
	for i, r := range rates {
		a.rateSum[i] += r
	}
	a.sinkSum += st.SinkThroughput
	a.latSum += st.LatencySec
	if st.Paused {
		a.paused++
	} else {
		a.active++
		for i := range st.Ops {
			a.utilSum[i] += st.Ops[i].Util
		}
	}
	for i := range st.Ops {
		a.inSum[i] += st.Ops[i].Arrived
		a.outSum[i] += st.Ops[i].Emitted
		a.consSum[i] += st.Ops[i].Consumed
	}
	a.lastOps = st.Ops
}

// totals returns the sums in the engine's Totals shape.
func (a *refAccumulator) totals() *streamsim.Totals {
	t := &streamsim.Totals{
		Active: a.active, Paused: a.paused, Sink: a.sinkSum, Latency: a.latSum,
		Rates: a.rateSum, Ops: make([]streamsim.OpTotals, len(a.inSum)),
	}
	for i := range t.Ops {
		t.Ops[i] = streamsim.OpTotals{Arrived: a.inSum[i], Consumed: a.consSum[i], Emitted: a.outSum[i], Util: a.utilSum[i]}
		if a.lastOps != nil {
			t.Ops[i].Backlog = a.lastOps[i].Buffered
		}
	}
	return t
}

// finish is the accumulator's report, with the monitor's Eq. 8 floor of
// 0.05, its saturation level of 0.95 and its two seconds of backlog.
func (a *refAccumulator) finish(names []string, running, cpuMilli []int, dropped, cost float64) (*monitor.Snapshot, error) {
	if a.ticks != a.seconds {
		return nil, errors.New("reference: slot finished before all ticks ran")
	}
	snap := &monitor.Snapshot{
		Slot:            a.slot,
		PausedSeconds:   a.paused,
		Throughput:      a.sinkSum / float64(a.seconds),
		ProcessedTuples: a.sinkSum,
		DroppedTuples:   dropped,
		CostSoFar:       cost,
		AvgLatencySec:   a.latSum / float64(a.seconds),
		Operators:       make([]monitor.OperatorMetrics, len(a.inSum)),
		SourceRates:     make([]float64, len(a.rateSum)),
	}
	for i, s := range a.rateSum {
		snap.SourceRates[i] = s / float64(a.seconds)
	}
	for i := range snap.Operators {
		om := &snap.Operators[i]
		om.Name, om.Tasks, om.CPUMilli = names[i], running[i], cpuMilli[i]
		om.InRate = a.inSum[i] / float64(a.seconds)
		om.OutRate = a.outSum[i] / float64(a.seconds)
		om.ConsumedRate = a.consSum[i] / float64(a.seconds)
		if a.active > 0 {
			om.Util = a.utilSum[i] / float64(a.active)
		}
		if a.lastOps != nil {
			om.Backlog = a.lastOps[i].Buffered
		}
		om.CapacityObs = om.OutRate / max(om.Util, 0.05)
		om.Backpressured = om.Util >= 0.95 || (om.InRate > 0 && om.Backlog > 2*om.InRate)
	}
	return snap, nil
}

// bitsEqual reports whether two float slices agree bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameTotals(a, b *streamsim.Totals) bool {
	ops := func(t *streamsim.Totals) []float64 {
		var v []float64
		for _, o := range t.Ops {
			v = append(v, o.Arrived, o.Consumed, o.Emitted, o.Util, o.Backlog)
		}
		return v
	}
	return a.Active == b.Active && a.Paused == b.Paused &&
		bitsEqual([]float64{a.Sink, a.Latency}, []float64{b.Sink, b.Latency}) &&
		bitsEqual(a.Rates, b.Rates) && bitsEqual(ops(a), ops(b))
}

// yahooLikeChain is a five-operator chain of one-input Linear edges, every
// operator of which takes the engine's straight-line step.
func yahooLikeChain(t *testing.T) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder()
	nodes := []dag.NodeID{b.Source("kafka")}
	hs := []dag.ThroughputFunc{nil}
	for i, sel := range []float64{1, 0.4, 1, 0.7, 1} {
		nodes = append(nodes, b.Operator(fmt.Sprintf("op-%d", i)))
		hs = append(hs, dag.Selectivity(sel))
	}
	nodes = append(nodes, b.Sink("sink"))
	if err := b.Chain(nodes, hs); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTotalsMatchReference: over random layered and join graphs (joins,
// several out-edges, sinks with several in-edges) and a chain of
// straight-line operators, with capacity and CPU noise, a buffer cap that
// drops, reconfiguration pauses, SetAllocation in mid-slot, and
// slots that end in a paused tick, the engine's totals equal the
// reference accumulator's sums after every tick, and the report
// monitor.SlotReport builds from them equals the reference report, bit
// for bit.
func TestTotalsMatchReference(t *testing.T) {
	rng := stats.NewRNG(39)
	graphs := []*dag.Graph{yahooLikeChain(t)}
	for i := 0; i < 6; i++ {
		layered, err := dagtest.RandomLayeredGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		join, err := dagtest.RandomJoinGraph(rng)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, layered, join)
	}
	var dropped float64
	pausedEnds := 0
	for gi, g := range graphs {
		m := g.NumOperators()
		models := make([]streamsim.CapacityModel, m)
		names := make([]string, m)
		for i := range models {
			base, err := streamsim.NewPowerCurve(60+60*rng.Float64(), 0.9, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			models[i] = base
			if i%2 == 1 {
				if models[i], err = streamsim.NewCPUScaledCurve(base, 1000, 0.8); err != nil {
					t.Fatal(err)
				}
			}
			names[i] = g.OperatorName(i)
		}
		var engines [2]*streamsim.Engine
		for k := range engines {
			e, err := streamsim.New(streamsim.Config{
				Graph:            g,
				Models:           models,
				NoiseSigma:       streamsim.CloudNoiseSigma,
				UtilNoiseSigma:   streamsim.CloudUtilNoiseSigma,
				MaxBufferPerEdge: 1500,
				RNG:              stats.NewRNG(int64(100 + gi)),
			})
			if err != nil {
				t.Fatal(err)
			}
			engines[k] = e
		}
		fused, ref := engines[0], engines[1]
		tasks, cpu := make([]int, m), make([]int, m)
		rates := make([]float64, g.NumSources())
		for slot := 0; slot < 6; slot++ {
			seconds := 20 + rng.Intn(40)
			for _, e := range engines {
				e.BeginSlot()
			}
			acc := newRefAccumulator(slot, m, len(rates), seconds)
			droppedBefore := fused.DroppedTotal()
			pauseAt := rng.Intn(seconds + 4) // past the slot: no pause
			if slot%3 == 2 {
				pauseAt = seconds - 2 // the slot ends in a paused tick
			}
			reconfAt := rng.Intn(seconds)
			lastPaused := false
			for sec := 0; sec < seconds; sec++ {
				if sec == reconfAt {
					for i := range tasks {
						tasks[i], cpu[i] = rng.Intn(6), 250*(1+rng.Intn(8))
					}
					for _, e := range engines {
						if err := e.SetAllocation(tasks, cpu); err != nil {
							t.Fatal(err)
						}
					}
				}
				if sec == pauseAt {
					ticks := 1 + rng.Intn(4)
					if pauseAt == seconds-2 {
						ticks = 2 + rng.Intn(3)
					}
					for _, e := range engines {
						e.Pause(ticks)
					}
				}
				if sec%7 == 0 {
					for i := range rates {
						rates[i] = 900 * rng.Float64()
					}
				}
				if err := fused.Tick(rates); err != nil {
					t.Fatal(err)
				}
				st, err := ref.RefStep(rates)
				if err != nil {
					t.Fatal(err)
				}
				acc.tick(rates, st)
				lastPaused = st.Paused
				if got, want := fused.Totals(), acc.totals(); !sameTotals(got, want) {
					t.Fatalf("graph %d slot %d tick %d: totals %+v, reference %+v", gi, slot, sec, got, want)
				}
			}
			if lastPaused {
				pausedEnds++
			}
			running := fused.TasksView()
			got, err := monitor.SlotReport(slot, seconds, fused.Totals(), names, running, cpu, fused.DroppedTotal()-droppedBefore, 1.5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := acc.finish(names, running, cpu, ref.DroppedTotal()-droppedBefore, 1.5)
			if err != nil {
				t.Fatal(err)
			}
			// %v prints every float64 in its shortest round-trip form, so
			// equal renderings mean equal bits.
			if g, w := fmt.Sprintf("%+v", *got), fmt.Sprintf("%+v", *want); g != w {
				t.Fatalf("graph %d slot %d: report\n%s\nreference\n%s", gi, slot, g, w)
			}
		}
		if fused.DroppedTotal() != ref.DroppedTotal() || fused.BufferedTotal() != ref.BufferedTotal() {
			t.Fatalf("graph %d: engines diverged", gi)
		}
		dropped += fused.DroppedTotal()
	}
	if dropped == 0 {
		t.Fatal("no tuples dropped, so the buffer cap went unexercised")
	}
	if pausedEnds == 0 {
		t.Fatal("no slot ended in a paused tick")
	}
}
