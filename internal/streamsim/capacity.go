// Package streamsim is the ground-truth dataflow simulator that stands in
// for a physical Flink deployment. It advances a stream application in
// 1-second ticks: sources emit tuples, operators drain per-edge buffers
// subject to their (hidden) service-capacity curves, backpressure builds
// when capacity is short, and reconfiguration pauses stall processing the
// way a Flink savepoint stop-and-resume does.
//
// The optimizer never sees the capacity curves — only noisy
// (throughput, CPU-utilization) observations, matching the information
// surface of the paper's testbed.
package streamsim

import (
	"fmt"
	"math"
)

// CapacityModel maps a task count (parallelism) to the operator's
// ground-truth service capacity in tuples/s of emitted output. Models must
// be increasing in the task count and report 0 capacity for 0 tasks.
// Capacity (and CapacityWithCPU of a ResourceAware model) must be a pure
// function of its arguments: the Engine evaluates it only when an
// operator's allocation changes and caches the result for every tick.
type CapacityModel interface {
	Capacity(tasks int) float64
}

// PowerCurve is the default capacity model
//
//	cap(n) = PerTask · n^Gamma · (1 + Ripple·sin(0.7·n))
//
// PerTask is the throughput of a single task; Gamma ∈ (0, 1] models
// diminishing returns from coordination overhead; Ripple adds the small
// multi-modal wrinkle the paper attributes to real configuration
// landscapes ("non-linear and multi-modal") while keeping the curve
// increasing (validated at construction for 1..MaxTasksChecked, which
// covers the paper's 1..10 task grid with headroom).
type PowerCurve struct {
	PerTask float64
	Gamma   float64
	Ripple  float64
}

// MaxTasksChecked bounds the monotonicity validation of NewPowerCurve.
const MaxTasksChecked = 16

// NewPowerCurve validates the parameters and returns the curve.
func NewPowerCurve(perTask, gamma, ripple float64) (PowerCurve, error) {
	if perTask <= 0 || math.IsNaN(perTask) || math.IsInf(perTask, 0) {
		return PowerCurve{}, fmt.Errorf("streamsim: PerTask %v must be positive and finite", perTask)
	}
	if gamma <= 0 || gamma > 1 {
		return PowerCurve{}, fmt.Errorf("streamsim: Gamma %v outside (0, 1]", gamma)
	}
	if math.Abs(ripple) > 0.2 {
		return PowerCurve{}, fmt.Errorf("streamsim: Ripple %v too large (|ripple| ≤ 0.2)", ripple)
	}
	c := PowerCurve{PerTask: perTask, Gamma: gamma, Ripple: ripple}
	prev := 0.0
	for n := 1; n <= MaxTasksChecked; n++ {
		v := c.Capacity(n)
		if v <= prev {
			return PowerCurve{}, fmt.Errorf("streamsim: curve not increasing at n=%d (%.3f ≤ %.3f); reduce Ripple", n, v, prev)
		}
		prev = v
	}
	return c, nil
}

// Capacity implements CapacityModel.
func (c PowerCurve) Capacity(tasks int) float64 {
	if tasks <= 0 {
		return 0
	}
	n := float64(tasks)
	return c.PerTask * math.Pow(n, c.Gamma) * (1 + c.Ripple*math.Sin(0.7*n))
}

// ResourceAware is an optional CapacityModel extension: the capacity also
// depends on the per-pod CPU allocation, enabling the paper's full
// configuration vector (number of executors × CPU cores).
type ResourceAware interface {
	CapacityModel
	// CapacityWithCPU returns the capacity at the given parallelism and
	// per-pod CPU millicores.
	CapacityWithCPU(tasks, cpuMilli int) float64
}

// CPUScaledCurve makes any base curve resource-aware:
//
//	cap(n, cpu) = base(n) · (cpu/RefMilli)^CPUExponent
//
// with CPUExponent ∈ (0, 1] modelling sub-linear returns from faster pods
// (memory bandwidth, GC, I/O waits).
type CPUScaledCurve struct {
	Base        CapacityModel
	RefMilli    int
	CPUExponent float64
}

// NewCPUScaledCurve validates and returns the curve.
func NewCPUScaledCurve(base CapacityModel, refMilli int, cpuExponent float64) (CPUScaledCurve, error) {
	if base == nil {
		return CPUScaledCurve{}, fmt.Errorf("streamsim: nil base curve")
	}
	if refMilli <= 0 {
		return CPUScaledCurve{}, fmt.Errorf("streamsim: RefMilli %d must be positive", refMilli)
	}
	if cpuExponent <= 0 || cpuExponent > 1 {
		return CPUScaledCurve{}, fmt.Errorf("streamsim: CPUExponent %v outside (0, 1]", cpuExponent)
	}
	return CPUScaledCurve{Base: base, RefMilli: refMilli, CPUExponent: cpuExponent}, nil
}

// Capacity implements CapacityModel at the reference CPU.
func (c CPUScaledCurve) Capacity(tasks int) float64 {
	return c.Base.Capacity(tasks)
}

// CapacityWithCPU implements ResourceAware.
func (c CPUScaledCurve) CapacityWithCPU(tasks, cpuMilli int) float64 {
	if cpuMilli <= 0 {
		return 0
	}
	return c.Base.Capacity(tasks) * math.Pow(float64(cpuMilli)/float64(c.RefMilli), c.CPUExponent)
}

// LinearCurve is the idealized model cap(n) = PerTask·n, useful in tests
// and as the mental model behind DS2-style proportional controllers.
type LinearCurve struct {
	PerTask float64
}

// NewLinearCurve validates the slope and returns the curve.
func NewLinearCurve(perTask float64) (LinearCurve, error) {
	if perTask <= 0 || math.IsNaN(perTask) || math.IsInf(perTask, 0) {
		return LinearCurve{}, fmt.Errorf("streamsim: PerTask %v must be positive and finite", perTask)
	}
	return LinearCurve{PerTask: perTask}, nil
}

// Capacity implements CapacityModel.
func (c LinearCurve) Capacity(tasks int) float64 {
	if tasks <= 0 {
		return 0
	}
	return c.PerTask * float64(tasks)
}

// SaturatingCurve caps a PowerCurve at a hard ceiling, modelling operators
// bottlenecked by an external service (e.g. a Redis join): adding tasks
// past the knee buys nothing.
type SaturatingCurve struct {
	Inner   PowerCurve
	Ceiling float64
}

// NewSaturatingCurve validates and returns the curve.
func NewSaturatingCurve(inner PowerCurve, ceiling float64) (SaturatingCurve, error) {
	if ceiling <= 0 {
		return SaturatingCurve{}, fmt.Errorf("streamsim: ceiling %v must be positive", ceiling)
	}
	return SaturatingCurve{Inner: inner, Ceiling: ceiling}, nil
}

// Capacity implements CapacityModel.
func (c SaturatingCurve) Capacity(tasks int) float64 {
	v := c.Inner.Capacity(tasks)
	// Smooth saturation keeps the curve non-decreasing (strictly, up to
	// floating-point saturation of tanh) while flattening hard at the
	// ceiling.
	return c.Ceiling * math.Tanh(v/c.Ceiling)
}
