package flink

import (
	"testing"

	"dragster/internal/cluster"
	"dragster/internal/stats"
	"dragster/internal/streamsim"
	"dragster/internal/workload"
)

// yahooJob submits the Yahoo pipeline on a noisy engine (the cloud
// noise every tenant runs with, buffers capped at 120 s of the high
// rate) at three tasks per operator, and returns it with a rate
// function offering the high rates.
func yahooJob(tb testing.TB) (*Job, func(int) []float64) {
	tb.Helper()
	spec, err := workload.Yahoo()
	if err != nil {
		tb.Fatal(err)
	}
	k8s := cluster.New()
	if err := k8s.AddNodes("n", 6, cluster.ResourceSpec{CPUMilli: 4000, MemoryMB: 8192}); err != nil {
		tb.Fatal(err)
	}
	s, err := NewSession(k8s, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	peak := 0.0
	for _, r := range spec.HighRates {
		peak = max(peak, r)
	}
	engine, err := streamsim.New(streamsim.Config{
		Graph:            spec.Graph,
		Models:           spec.Models,
		NoiseSigma:       streamsim.CloudNoiseSigma,
		UtilNoiseSigma:   streamsim.CloudUtilNoiseSigma,
		MaxBufferPerEdge: 120 * peak,
		RNG:              stats.NewRNG(1),
	})
	if err != nil {
		tb.Fatal(err)
	}
	initial := make([]int, spec.Graph.NumOperators())
	for i := range initial {
		initial[i] = 3
	}
	j, err := s.SubmitJob("yahoo", spec.Graph, engine, initial)
	if err != nil {
		tb.Fatal(err)
	}
	rates := spec.HighRates
	return j, func(int) []float64 { return rates }
}

// TestRunSlotAllocatesOnlyItsReport: once a job has run a slot, RunSlot
// allocates its slot report (the snapshot, its operator rows and its
// source rates) and nothing per tick: a 600-tick slot allocates what a
// 1-tick slot does.
func TestRunSlotAllocatesOnlyItsReport(t *testing.T) {
	j, rateAt := yahooJob(t)
	if _, err := j.RunSlot(600, rateAt); err != nil {
		t.Fatal(err)
	}
	allocs := func(seconds int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := j.RunSlot(seconds, rateAt); err != nil {
				t.Fatal(err)
			}
		})
	}
	const report = 3
	if long, short := allocs(600), allocs(1); long != short || long > report {
		t.Errorf("RunSlot allocates %v per 600-second slot and %v per 1-second slot, want at most %d for both", long, short, report)
	}
}

// BenchmarkRunSlotYahoo times one 600-second slot of the noisy Yahoo
// job through Job.RunSlot: 600 engine ticks with their CPU-noise draws,
// the slot report built from the engine's totals and the cluster clock.
func BenchmarkRunSlotYahoo(b *testing.B) {
	j, rateAt := yahooJob(b)
	if _, err := j.RunSlot(600, rateAt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.RunSlot(600, rateAt); err != nil {
			b.Fatal(err)
		}
	}
}
