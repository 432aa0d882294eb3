// Package dragster is the public API of the Dragster reproduction — an
// online-optimization-based dynamic resource allocation scheme for elastic
// stream processing with a sub-linear regret guarantee (Liu, Xu, Lau:
// "Online Resource Optimization for Elastic Stream Processing with Regret
// Guarantee", ICPP 2022).
//
// The package re-exports the stable surface of the internal packages via
// type aliases, so downstream users program against one import:
//
//	import "dragster"
//
//	b := dragster.NewGraphBuilder()
//	src := b.Source("source")
//	op := b.Operator("map")
//	sink := b.Sink("sink")
//	b.Edge(src, op, nil, 1)
//	b.Edge(op, sink, dragster.Selectivity(1.5), 1)
//	g, err := b.Build()
//	...
//	ctrl, err := dragster.NewController(dragster.ControllerConfig{
//	    Graph: g, YMax: 1e5, NoiseVar: 1e6,
//	})
//
// The full stack — simulated Kubernetes cluster, Flink session cluster,
// job monitor, history database, baselines, benchmark workloads and the
// experiment harness that regenerates every table and figure of the paper
// — is exposed below. See README.md for a tour and DESIGN.md for the
// architecture.
package dragster

import (
	"dragster/internal/baseline"
	"dragster/internal/cluster"
	"dragster/internal/core"
	"dragster/internal/dag"
	"dragster/internal/experiment"
	"dragster/internal/fleet"
	"dragster/internal/flink"
	"dragster/internal/monitor"
	"dragster/internal/osp"
	"dragster/internal/store"
	"dragster/internal/streamsim"
	"dragster/internal/ucb"
	"dragster/internal/workload"
)

// ---- Application model (DAG of Eq. 1–4) ----

// Graph is a validated stream-application DAG.
type Graph = dag.Graph

// GraphBuilder accumulates sources, operators, sinks and edges.
type GraphBuilder = dag.Builder

// NodeID identifies a node within one Graph.
type NodeID = dag.NodeID

// ThroughputFunc is the edge mapping h_{i,j} of Eq. 3.
type ThroughputFunc = dag.ThroughputFunc

// Linear, MinRate and Tanh are the throughput-function forms of Eq. 2.
type (
	Linear  = dag.Linear
	MinRate = dag.MinRate
	Tanh    = dag.Tanh
)

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return dag.NewBuilder() }

// Selectivity returns the one-input linear throughput function h(e) = s·e.
func Selectivity(s float64) Linear { return dag.Selectivity(s) }

// NewLinear builds Eq. 2a; NewMinRate Eq. 2b; NewTanh Eq. 2c.
var (
	NewLinear  = dag.NewLinear
	NewMinRate = dag.NewMinRate
	NewTanh    = dag.NewTanh
)

// LearnedLinear is a selectivity learned online by regression — the
// Theorem 2 setting for operators whose logic is unknown.
type LearnedLinear = dag.LearnedLinear

// NewLearnedLinear starts a learner from a prior selectivity guess.
var NewLearnedLinear = dag.NewLearnedLinear

// ---- Controller (Algorithm 2) ----

// Controller is the two-level Dragster optimization engine.
type Controller = core.Controller

// ControllerConfig assembles a Controller.
type ControllerConfig = core.Config

// Autoscaler is the per-slot policy interface shared with the baselines.
type Autoscaler = core.Autoscaler

// Method selects the level-1 algorithm.
type Method = osp.Method

// Level-1 algorithm choices.
const (
	SaddlePoint     = osp.SaddlePoint
	GradientDescent = osp.GradientDescent
)

// NewController builds the Dragster controller.
func NewController(cfg ControllerConfig) (*Controller, error) { return core.New(cfg) }

// Acquisition selects the GP-UCB scoring rule (Eq. 18 vs conventional).
type Acquisition = ucb.Acquisition

// Acquisition choices.
const (
	ExtendedUCB     = ucb.Extended
	ConventionalUCB = ucb.Conventional
)

// ---- Baselines ----

// Dhalion is the rule-based baseline of the evaluation.
type Dhalion = baseline.Dhalion

// DS2 is the proportional-controller baseline from related work.
type DS2 = baseline.DS2

// NewDhalion and NewDS2 construct the baselines.
var (
	NewDhalion = baseline.NewDhalion
	NewDS2     = baseline.NewDS2
)

// ---- Substrate: Kubernetes, Flink, dataflow simulator ----

// KubeCluster simulates the Kubernetes control plane (nodes, pods,
// deployments, scheduler, cost meter).
type KubeCluster = cluster.Cluster

// ResourceSpec is a pod resource request.
type ResourceSpec = cluster.ResourceSpec

// NewKubeCluster returns an empty cluster.
var NewKubeCluster = cluster.New

// WithPricePerCoreHour configures the cost meter.
var WithPricePerCoreHour = cluster.WithPricePerCoreHour

// FlinkSession is a Flink session cluster on Kubernetes.
type FlinkSession = flink.SessionCluster

// FlinkJob is a running Flink application.
type FlinkJob = flink.Job

// FlinkOptions configures a session cluster.
type FlinkOptions = flink.Options

// NewFlinkSession creates a session cluster (JobManager included).
var NewFlinkSession = flink.NewSession

// DefaultFlinkOptions mirrors the paper's setup (1 CPU / 2 GB slots, 30 s
// savepoint pause).
var DefaultFlinkOptions = flink.DefaultOptions

// DefaultStormOptions returns the Storm preset of a session cluster — the
// second substrate the paper names (rebalance-based rescaling, §3.2): a
// 10 s rebalance pause and homogeneous 1-CPU workers.
var DefaultStormOptions = flink.StormOptions

// Engine is the ground-truth dataflow simulator.
type Engine = streamsim.Engine

// EngineConfig assembles an Engine.
type EngineConfig = streamsim.Config

// CapacityModel maps parallelism to ground-truth service capacity.
type CapacityModel = streamsim.CapacityModel

// NewEngine builds a dataflow simulator.
var NewEngine = streamsim.New

// Capacity-curve constructors for custom workloads: PowerCurve (concave
// diminishing returns), SaturatingCurve (external-service ceiling),
// CPUScaledCurve (resource-aware: capacity depends on per-pod CPU too).
var (
	NewPowerCurve      = streamsim.NewPowerCurve
	NewSaturatingCurve = streamsim.NewSaturatingCurve
	NewCPUScaledCurve  = streamsim.NewCPUScaledCurve
	NewLinearCurve     = streamsim.NewLinearCurve
)

// ---- Monitoring and history ----

// Monitor is the Job Monitor (Eq. 8 capacity estimation, backpressure).
type Monitor = monitor.Monitor

// Snapshot is the per-slot metrics view consumed by Autoscalers.
type Snapshot = monitor.Snapshot

// NewMonitor reads the slot reports of a FlinkJob.
var NewMonitor = monitor.New

// HistoryDB is the candidate-configuration and observation database.
type HistoryDB = store.DB

// NewHistoryDB returns an empty database.
var NewHistoryDB = store.New

// ---- Workloads and experiments ----

// Workload bundles a benchmark application (graph, hidden capacity
// curves, offered-load levels).
type Workload = workload.Spec

// Benchmark workload constructors (Nexmark suite + Yahoo streaming
// benchmark) and lookup.
var (
	WordCountWorkload   = workload.WordCount
	WordCount2DWorkload = workload.WordCount2D
	GroupWorkload       = workload.Group
	AsyncIOWorkload     = workload.AsyncIO
	JoinWorkload        = workload.Join
	WindowWorkload      = workload.Window
	YahooWorkload       = workload.Yahoo
	WorkloadByName      = workload.ByName
	AllWorkloads        = workload.All
)

// RateFunc yields offered source rates per (slot, second).
type RateFunc = workload.RateFunc

// Offered-load profile constructors.
var (
	ConstantRates = workload.Constant
	CycleRates    = workload.Cycle
	StepRates     = workload.StepAt
	SinusoidRates = workload.Sinusoid
	TraceRates    = workload.Trace
	LoadTraceCSV  = workload.LoadTraceCSV
)

// Scenario describes one experiment run; Run executes it.
type Scenario = experiment.Scenario

// Result is a completed run.
type Result = experiment.Result

// RunScenario executes a scenario under a policy factory.
var RunScenario = experiment.Run

// PolicyFactory builds an Autoscaler for a scenario.
type PolicyFactory = experiment.PolicyFactory

// Policy factories for the three evaluated schemes (plus extras).
var (
	DragsterSaddlePolicy = experiment.DragsterSaddle
	DragsterOGDPolicy    = experiment.DragsterOGD
	DhalionPolicy        = experiment.DhalionPolicy
	DS2Policy            = experiment.DS2Policy
)

// Fleet is the multi-job control plane: N controllers sharing one
// cluster under a global Σ-tasks budget, with admission control,
// dual-price budget arbitration, and cross-job GP warm-starts.
type (
	Fleet            = fleet.Manager
	FleetConfig      = fleet.Config
	FleetJobSpec     = fleet.JobSpec
	FleetResult      = fleet.Result
	FleetArbitration = fleet.Arbitration
	FleetScenario    = experiment.FleetScenario
	FleetScore       = experiment.FleetScore
)

// Fleet arbitration rules.
const (
	FleetDualPrice  = fleet.DualPrice
	FleetEqualSplit = fleet.EqualSplit
)

// NewFleet builds a fleet manager over a fresh shared cluster.
var NewFleet = fleet.New

// RunFleetScenario runs a fleet and scores every tenant's regret and
// attributed cost against its unbudgeted single-job optimum.
var RunFleetScenario = experiment.RunFleetScenario
