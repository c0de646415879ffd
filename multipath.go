// Package multipath is a library of multiple-path, multiple-copy and
// large-copy embeddings of communication graphs into boolean
// hypercubes, reproducing Greenberg & Bhatt, "Routing Multiple Paths in
// Hypercubes" (SPAA 1990).
//
// Classical hypercube embeddings leave most links idle: the Gray-code
// cycle uses one of the n outgoing links per node, so moving m packets
// per cycle edge costs m steps. The constructions here map every guest
// edge onto ~n/2 edge-disjoint length-≤3 host paths, cutting the cost
// to Θ(m/n) — provably the best possible — and providing disjoint
// routes for fault tolerance (Rabin IDA) and fast bit-serial routing.
//
// Entry points:
//
//   - CycleWidthEmbedding / CycleLoad2Embedding: Theorems 1 and 2.
//   - GrayCodeCycle: the classical baseline (Figure 1).
//   - GridEmbedding: Corollary 1's multi-axis grids.
//   - CCCMultiCopy: Theorem 3's n copies of the cube-connected cycles.
//   - CompleteBinaryTree / ArbitraryBinaryTree: Theorem 5 and §6.2.
//   - LargeCopy*: §8's load-n single-copy embeddings.
//   - HamiltonianDecomposition: the Lemma 1 substrate.
//   - Disperse/Reconstruct + FaultTolerantSend: IDA over disjoint paths.
//   - Simulate: the unit-delay network simulator of the cost model.
//   - SimulateFaults + BernoulliFaults: the simulator under injected
//     link faults (deterministic, replayable).
//   - SimulateProbed + NewRecorder/NewTraceWriter: the same simulations
//     observed through a probe — latency/queue-depth distributions and
//     JSONL event traces; attaching a probe never changes results.
//   - SimulateSharded / SimulateFaultsSharded: the same simulations run
//     by a partitioned engine across shard-worker goroutines —
//     bit-identical results, built for million-node (Q_20–Q_22) traffic.
//   - SimulateOpenLoop + PoissonArrivals/MMPPArrivals (and the
//     heavy-tailed ParetoArrivals/LogNormalArrivals): open-loop
//     steady-state runs — messages arrive over time from a seeded
//     stochastic process, a leap-step clock skips quiescent gaps, and
//     slot recycling bounds memory by the in-flight window — for
//     latency-vs-offered-load curves and saturation throughput.
//   - SimulateOpenLoopSharded: the open-loop simulator on the
//     partitioned engine — whole-cube saturation sweeps at
//     million-node scale, bit-identical to SimulateOpenLoop.
//   - SelfHealSend: the self-healing open-loop transport — live
//     failure notifications, in-flight rerouting onto surviving
//     disjoint paths with deterministic backoff and deadlines, or
//     k-of-n IDA dispersal, and graceful-degradation accounting:
//     delivered fraction and latency, not just path survival;
//     shard-invariant by contract.
//
// All metrics (load, dilation, width, congestion, packet cost) are
// recomputed by independent verifiers on the returned Embedding values;
// nothing is trusted from the constructors.
package multipath

import (
	"io"

	"multipath/internal/ccc"
	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/graph"
	"multipath/internal/grid"
	"multipath/internal/guests"
	"multipath/internal/hamdecomp"
	"multipath/internal/hypercube"
	"multipath/internal/ida"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
	"multipath/internal/relax"
	"multipath/internal/routing"
	"multipath/internal/selfheal"
	"multipath/internal/traffic"
	"multipath/internal/xproduct"
)

// Re-exported core types.
type (
	// Embedding maps a guest graph into a hypercube with one or more
	// host paths per guest edge. See its methods for the §3 metrics.
	Embedding = core.Embedding
	// MultiCopy is a k-copy embedding (§3).
	MultiCopy = core.MultiCopy
	// Path is a host node sequence.
	Path = core.Path
	// Launch schedules one packet for Embedding.ScheduleCost.
	Launch = core.Launch
	// Hypercube is the Q_n host model.
	Hypercube = hypercube.Q
	// Node is an n-bit hypercube address.
	Node = hypercube.Node
	// Graph is a directed multigraph guest.
	Graph = graph.Graph
	// Message is a routed transfer for the network simulator.
	Message = netsim.Message
	// SimResult reports a completed simulation.
	SimResult = netsim.Result
	// Decomposition is a Hamiltonian decomposition of Q_n (Lemma 1).
	Decomposition = hamdecomp.Decomposition
	// Piece is one IDA share.
	Piece = ida.Piece
	// FaultModel injects link faults for FaultTolerantSend.
	FaultModel = ida.FaultModel
	// FaultSchedule is a deterministic, replayable link-fault event
	// list for the fault-aware simulators and the self-healing
	// transport.
	FaultSchedule = faults.Schedule
	// FaultOpts configures SimulateFaults.
	FaultOpts = netsim.FaultOpts
	// FaultSimResult is SimulateFaults' result: Result plus per-message
	// outcomes and failure accounting.
	FaultSimResult = netsim.FaultResult
	// Probe observes a simulation (per-step queue samples with the
	// step's active links, flit moves/drops, message completions);
	// attaching one never changes the simulation's results. StepEnd
	// lists every link that is non-empty or moved a flit, so a probe
	// can treat the rest as idle.
	Probe = netsim.Probe
	// Recorder aggregates probe events into flit/message-latency and
	// queue-depth histograms plus utilization series.
	Recorder = obsv.Recorder
	// TraceWriter streams probe events as JSONL.
	TraceWriter = obsv.TraceWriter
	// DistSummary is a histogram summary: n, mean, p50/p95/p99, max.
	DistSummary = obsv.Summary
	// Arrival is one open-loop injection: a step and a route-template
	// index.
	Arrival = netsim.Arrival
	// ArrivalTrace is a recorded arrival sequence, replayable through
	// the open-loop simulator and its golden model.
	ArrivalTrace = netsim.Trace
	// OpenLoopOpts configures SimulateOpenLoop (mode, faults, warm-up
	// cutoff, latency sink, step limit).
	OpenLoopOpts = netsim.OpenLoopOpts
	// OpenLoopResult reports an open-loop run: Result plus injection,
	// in-flight, and leap accounting.
	OpenLoopResult = netsim.OpenLoopResult
	// FaultListener receives the open-loop engine's canonical failure
	// notifications (link deaths and doomed messages); attaching one
	// enables mid-run re-polling of the arrival source for reroute
	// injection.
	FaultListener = netsim.FaultListener
	// SelfHealConfig parameterizes SelfHealSend.
	SelfHealConfig = selfheal.Config
	// SelfHealReport aggregates one self-healing open-loop run:
	// delivered and deadline-miss fractions, retry/reroute counts, and
	// the engine's piece-level result.
	SelfHealReport = selfheal.Report
	// SelfHealBackoff schedules retry delays for the self-healing
	// session; implementations must be deterministic.
	SelfHealBackoff = selfheal.Backoff
	// FixedBackoff waits a constant number of steps before each retry.
	FixedBackoff = selfheal.FixedBackoff
	// ExpBackoff is seeded exponential backoff with stateless hash
	// jitter — replayable regardless of callback interleaving.
	ExpBackoff = selfheal.ExpBackoff
	// RoutingStrategy draws one route template per source–destination
	// pair over a hypercube's dense directed-link ids; implementations
	// are deterministic in (state, rng).
	RoutingStrategy = routing.Strategy
	// RoutingPair is one source–destination demand for a
	// RoutingStrategy.
	RoutingPair = routing.Pair
	// AdaptiveStrategy is the feedback-driven strategy: it re-plans on
	// observed queue depths between measurement windows and learns dead
	// links from the engine's failure notifications.
	AdaptiveStrategy = routing.Adaptive
	// StrategyRunConfig parameterizes RunStrategy's windowed open-loop
	// execution.
	StrategyRunConfig = routing.RunConfig
	// StrategyRunResult aggregates a windowed strategy run.
	StrategyRunResult = routing.RunResult
	// CBTEmbedding is Theorem 5's complete-binary-tree result.
	CBTEmbedding = xproduct.CBTEmbedding
	// GridMultiPath is Corollary 1's grid embedding with phase costs.
	GridMultiPath = grid.GridEmbedding
	// RelaxationCost summarizes one §8.3 mapping strategy.
	RelaxationCost = grid.RelaxationCost
)

// Simulation modes.
const (
	StoreAndForward = netsim.StoreAndForward
	CutThrough      = netsim.CutThrough
)

// Self-healing strategies.
const (
	RerouteSelfHeal = selfheal.Reroute
	IDASelfHeal     = selfheal.IDA
)

// NewHypercube returns the Q_n host model (1 ≤ n ≤ 26).
func NewHypercube(n int) *Hypercube { return hypercube.New(n) }

// GrayCodeCycle returns the classical binary-reflected Gray-code
// embedding of the 2^n-node directed cycle: dilation 1, width 1,
// m-packet cost m (Figure 1).
func GrayCodeCycle(n int) (*Embedding, error) { return cycles.GrayCode(n) }

// CycleWidthEmbedding returns Theorem 1's embedding of the 2^n-node
// directed cycle: load 1, width CycleWidth(n)+1 (including the direct
// edge), synchronized cost 3.
func CycleWidthEmbedding(n int) (*Embedding, error) { return cycles.Theorem1(n) }

// CycleLoad2Embedding returns Theorem 2's embedding of the
// 2^{n+1}-node directed cycle: load 2, width CycleWidth(n), cost 3;
// for n ∈ {8, 16} every directed link is busy at every step.
func CycleLoad2Embedding(n int) (*Embedding, error) { return cycles.Theorem2(n) }

// CycleWidth returns the number of length-3 paths per edge used by the
// cycle embeddings for host dimension n (the largest power of two
// ≤ n/2; equals Lemma 3's optimal ⌊n/2⌋ when that is a power of two).
func CycleWidth(n int) int { return cycles.RowSubcubeDim(n) }

// WidthBound returns Lemma 3's upper bound ⌊n/2⌋ on the width of any
// cost-3 embedding of the 2^{n+1}-node cycle.
func WidthBound(n int) int { return cycles.WidthBound(n) }

// GridEmbedding returns Corollary 1's multiple-path embedding of the
// k-axis grid with the given side lengths; each directed phase (axis,
// direction) has synchronized cost 3.
func GridEmbedding(sides []int) (*GridMultiPath, error) { return grid.CrossProduct(sides) }

// CompareRelaxationMappings evaluates §8.3's three strategies for an
// M × M relaxation on N² processors.
func CompareRelaxationMappings(m, n int) ([]RelaxationCost, error) {
	return grid.CompareRelaxationMappings(m, n)
}

// HamiltonianDecomposition partitions the edges of Q_n into ⌊n/2⌋
// Hamiltonian cycles (plus a perfect matching for odd n), the
// Alspach–Bermond–Sotteau substrate behind Lemma 1.
func HamiltonianDecomposition(n int) (*Decomposition, error) { return hamdecomp.Decompose(n) }

// CCCEmbedding returns the Greenberg–Heath–Rosenberg embedding of the
// n-level cube-connected cycles in Q_{n+⌈log n⌉}: dilation 1 for even
// n, 2 for odd n (Lemma 4).
func CCCEmbedding(n int) (*Embedding, error) { return ccc.GHREmbed(n) }

// CCCMultiCopy returns Theorem 3's n copies of the n·2^n-node directed
// CCC in Q_{n+log n} with dilation 1 and edge-congestion 2 (n a power
// of two).
func CCCMultiCopy(n int) (*MultiCopy, error) { return ccc.Theorem3(n) }

// CCCMultiCopyNaive returns §5.3's cautionary same-windows variant,
// whose edge congestion grows as n/log n.
func CCCMultiCopyNaive(n int) (*MultiCopy, error) { return ccc.NaiveSameWindows(n) }

// LargeCopyCycle embeds the n·2^n-node directed cycle in Q_n with
// dilation 1 and congestion 1 (Corollary 3; n even).
func LargeCopyCycle(n int) (*Embedding, error) { return ccc.LargeCopyCycle(n) }

// LargeCopyCCC embeds the n·2^n-node CCC in Q_n with dilation 1 and
// congestion 1 (Lemma 9).
func LargeCopyCCC(n int) (*Embedding, error) { return ccc.LargeCopyCCC(n) }

// LargeCopyButterfly embeds the n·2^n-node wrapped butterfly in Q_n
// (Lemma 9).
func LargeCopyButterfly(n int) (*Embedding, error) { return ccc.LargeCopyButterfly(n) }

// LargeCopyFFT embeds the (n+1)·2^n-node FFT graph in Q_n (Lemma 9).
func LargeCopyFFT(n int) (*Embedding, error) { return ccc.LargeCopyFFT(n) }

// CompleteBinaryTree returns Theorem 5's width-(m+log m) embedding of
// a complete binary tree over X(Butterfly_m), m ∈ {2, 4}.
func CompleteBinaryTree(m int) (*CBTEmbedding, error) { return xproduct.Theorem5(m) }

// ArbitraryBinaryTree embeds an arbitrary binary tree via §6.2's
// composition through the complete binary tree.
func ArbitraryBinaryTree(m int, tree *Graph) (*Embedding, error) {
	return xproduct.ArbitraryTree(m, tree)
}

// RandomBinaryTree builds a reproducible random binary tree guest.
func RandomBinaryTree(n int, seed int64) *Graph { return guests.RandomBinaryTree(n, seed) }

// DisjointPaths returns n edge-disjoint hypercube paths between two
// distinct nodes (the classical fault-tolerance fan).
func DisjointPaths(q *Hypercube, u, v Node) []Path { return core.DisjointPaths(q, u, v) }

// Disperse splits data into n IDA pieces, any k of which reconstruct
// it (Rabin [22]).
func Disperse(data []byte, n, k int) ([]Piece, error) { return ida.Disperse(data, n, k) }

// Reconstruct recovers data of the given length from ≥ k pieces.
func Reconstruct(pieces []Piece, k, length int) ([]byte, error) {
	return ida.Reconstruct(pieces, k, length)
}

// NewFaultModel fails each directed link with probability p.
func NewFaultModel(links int, p float64, seed int64) *FaultModel {
	return ida.NewFaultModel(links, p, seed)
}

// FaultTolerantSend ships data across the disjoint paths of one guest
// edge under a fault model, reconstructing from surviving pieces.
func FaultTolerantSend(e *Embedding, edge int, data []byte, k int, f *FaultModel) (*ida.SendReport, []byte, error) {
	return ida.FaultTolerantSend(e, edge, data, k, f)
}

// Simulate runs the synchronous link-level simulator.
func Simulate(msgs []*Message, mode netsim.Mode) (*SimResult, error) {
	return netsim.Simulate(msgs, mode)
}

// SimulateFaults runs the simulator under a fault schedule: links die
// (or recover) mid-flight, affected messages are failed and blamed.
func SimulateFaults(msgs []*Message, mode netsim.Mode, opts FaultOpts) (*FaultSimResult, error) {
	return netsim.SimulateFaults(msgs, mode, opts)
}

// BernoulliFaults permanently fails each directed link with probability
// p, reproducibly from the seed; for a fixed seed the faulty set is
// monotone in p.
func BernoulliFaults(links int, p float64, seed int64) *FaultSchedule {
	return faults.Bernoulli(links, p, seed)
}

// SelfHealSend runs the self-healing open-loop transport: each arrival
// in the trace starts one transfer on the disjoint-path bundle of its
// guest edge, failed pieces are rerouted in flight onto surviving
// sibling paths under the configured backoff/deadline policy (or
// dispersed k-of-n up front under IDASelfHeal), and new transfers
// steer around links the engine has reported dead. The Report is
// identical at every SelfHealConfig.Shards value.
func SelfHealSend(e *Embedding, edges []int, arrivals *ArrivalTrace, cfg SelfHealConfig) (*SelfHealReport, error) {
	return selfheal.Send(e, edges, arrivals, cfg)
}

// PathTemplates builds one open-loop route template per disjoint path
// of each listed guest edge (edges nil selects all), returning the
// per-edge template index groups — the layout SelfHealSend keys its
// path cycling on.
func PathTemplates(e *Embedding, edges []int, flits int) ([]*Message, [][]int32, error) {
	return traffic.PathTemplates(e, edges, flits)
}

// DirectCycleEmbedding embeds a Hamiltonian node sequence as a
// dilation-1 directed cycle (the building block of Lemma 1's copies).
func DirectCycleEmbedding(q *Hypercube, seq []Node) (*Embedding, error) {
	return core.DirectCycleEmbedding(q, seq)
}

// ButterflyMultiCopy returns n copies of the wrapped butterfly via the
// butterfly→CCC simulation over Theorem 3 (§5.4): dilation 2,
// edge-congestion at most 4.
func ButterflyMultiCopy(n int) (*MultiCopy, error) { return ccc.ButterflyMultiCopy(n) }

// SimulateWormhole runs the channel-holding wormhole model (§7),
// detecting deadlock.
func SimulateWormhole(msgs []*Message) (*netsim.WormholeResult, error) {
	return netsim.SimulateWormhole(msgs)
}

// SimulateProbed runs Simulate with an observation probe attached.
// The probe sees per-step queue samples, flit moves, and message
// completions; the returned Result is bit-identical to Simulate's.
func SimulateProbed(msgs []*Message, mode netsim.Mode, p Probe) (*SimResult, error) {
	return netsim.SimulateProbed(msgs, mode, p)
}

// SimulateSharded runs Simulate partitioned across the given number of
// shard-worker goroutines, each owning a contiguous range of the dense
// link space. Results are bit-identical to Simulate for every shard
// count; shards ≤ 1 is exactly the single-shard engine.
func SimulateSharded(msgs []*Message, mode netsim.Mode, shards int) (*SimResult, error) {
	return netsim.SimulateSharded(msgs, mode, shards)
}

// SimulateFaultsSharded is SimulateFaults on the partitioned engine:
// each shard evaluates its own links' fault state, and the results —
// outcomes, blame, timed-out sets — are bit-identical to
// SimulateFaults for every shard count.
func SimulateFaultsSharded(msgs []*Message, mode netsim.Mode, opts FaultOpts, shards int) (*FaultSimResult, error) {
	return netsim.SimulateFaultsSharded(msgs, mode, opts, shards)
}

// SimulateOpenLoop runs the open-loop steady-state simulator: messages
// are instances of route templates injected at the steps an ArrivalTrace
// (or any arrival source) dictates. Per-step work is proportional to
// live traffic only — quiescent gaps are leapt over and message slots
// are recycled — and a trace injecting every template at step 0 is
// bit-identical to Simulate.
func SimulateOpenLoop(tmpls []*Message, src netsim.ArrivalSource, opts OpenLoopOpts) (*OpenLoopResult, error) {
	return netsim.SimulateOpenLoop(tmpls, src, opts)
}

// SimulateOpenLoopSharded runs the open-loop simulator partitioned
// across the given number of shard-worker goroutines. Arrivals are
// dispatched to the shard owning their first link, the leap-step clock
// generalizes to global quiescence (the clock leaps only when no shard
// holds an in-flight flit), and results, latency sinks, and probe
// streams are bit-identical to SimulateOpenLoop for every shard count;
// shards ≤ 1 is exactly the single-shard engine.
func SimulateOpenLoopSharded(tmpls []*Message, src netsim.ArrivalSource, opts OpenLoopOpts, shards int) (*OpenLoopResult, error) {
	return netsim.SimulateOpenLoopSharded(tmpls, src, opts, shards)
}

// PoissonArrivals draws a deterministic seeded Poisson arrival trace:
// count arrivals at the given expected rate per step, each naming one
// of ntmpl route templates uniformly.
func PoissonArrivals(seed int64, rate float64, count, ntmpl int) (*ArrivalTrace, error) {
	return traffic.PoissonArrivals(seed, rate, count, ntmpl)
}

// MMPPArrivals draws a bursty two-state Markov-modulated Poisson trace:
// the process alternates between low- and high-rate phases with mean
// dwell meanDwell steps.
func MMPPArrivals(seed int64, lowRate, highRate, meanDwell float64, count, ntmpl int) (*ArrivalTrace, error) {
	return traffic.MMPPArrivals(seed, lowRate, highRate, meanDwell, count, ntmpl)
}

// ParetoArrivals draws a heavy-tailed arrival trace with Pareto
// inter-arrival gaps (minimum scale, power-law tail exponent alpha):
// the self-similar traffic of measured networks — dense arrival
// clusters separated by occasional enormous quiet stretches.
func ParetoArrivals(seed int64, alpha, scale float64, count, ntmpl int) (*ArrivalTrace, error) {
	return traffic.ParetoArrivals(seed, alpha, scale, count, ntmpl)
}

// LogNormalArrivals draws an arrival trace with log-normally
// distributed inter-arrival gaps (median exp(mu), spread sigma); large
// sigma gives a heavy right tail of quiet periods alongside bursts.
func LogNormalArrivals(seed int64, mu, sigma float64, count, ntmpl int) (*ArrivalTrace, error) {
	return traffic.LogNormalArrivals(seed, mu, sigma, count, ntmpl)
}

// WidthPathMessages spreads an M-flit transfer per guest edge of a
// multiple-path embedding across its disjoint paths — the open-loop
// experiments use these as route templates.
func WidthPathMessages(e *Embedding, flits int) ([]*Message, error) {
	return traffic.WidthPathMessages(e, flits)
}

// NewRecorder returns a probe that aggregates latency and queue-depth
// histograms (see DistSummary) and link-utilization series.
func NewRecorder() *Recorder { return obsv.NewRecorder() }

// NewTraceWriter returns a probe that streams simulation events to w
// as JSONL; call Flush when the runs are done.
func NewTraceWriter(w io.Writer) *TraceWriter { return obsv.NewTraceWriter(w) }

// NewRelaxation creates the §2/§8.3 workload: an M × M Jacobi
// relaxation with a Dirichlet boundary.
func NewRelaxation(m int, boundary func(i, j int) float64) *relax.Problem {
	return relax.NewProblem(m, boundary)
}

// CycleWideEmbedding returns Theorem 2's second option for n ≡ 2, 3
// (mod 4): width exactly ⌊n/2⌋ at a verified scheduled cost of 6-7
// steps (the paper's odd-subcube construction claims 4; see DESIGN.md).
func CycleWideEmbedding(n int) (*cycles.WideEmbedding, error) { return cycles.Theorem2Wide(n) }

// BitReversalPermutation returns the classic adversarial permutation
// for dimension-ordered routing.
func BitReversalPermutation(n int) []int { return netsim.BitReversalPermutation(n) }

// BroadcastMessages models a one-to-all broadcast pipelined over the
// directed Hamiltonian cycles of Lemma 1 (multi = all cycles) or a
// single cycle.
func BroadcastMessages(q *Hypercube, flits int, multi bool) ([]*Message, error) {
	return netsim.BroadcastMessages(q, flits, multi)
}

// CCCMultiCopyGeneral extends Theorem 3 to any even n (§5's footnote):
// measured dilation 1 and edge-congestion ≤ 3.
func CCCMultiCopyGeneral(n int) (*MultiCopy, error) { return ccc.Theorem3General(n) }

// Load2Torus embeds the k-axis torus with sides 2^{a+1} at load 2^k
// (§4.5's closing remark), each directed phase costing 3·2^{k-1} steps.
func Load2Torus(a, k int) (*GridMultiPath, error) { return grid.Load2Torus(a, k) }

// WidenNaive gives every dilation-1 edge w independent disjoint paths
// with no cross-edge coordination — the instructive foil to Theorem 1
// (same width, colliding schedule).
func WidenNaive(e *Embedding, w int) (*Embedding, error) { return core.Widen(e, w) }

// NewDimOrder returns classical dimension-ordered (e-cube) routing as
// a RoutingStrategy: the baseline every rival is raced against in E29.
func NewDimOrder(q *Hypercube) RoutingStrategy { return routing.NewDimOrder(q) }

// NewValiantStrategy returns Valiant–Brebner two-phase randomized
// routing: dimension-ordered to a uniform random intermediate, then
// dimension-ordered to the destination.
func NewValiantStrategy(q *Hypercube) RoutingStrategy { return routing.NewValiant(q) }

// NewMinimalOblivious returns minimal oblivious routing: a shortest
// route through a uniformly random order of the differing dimensions,
// tie-broken toward the links this instance has loaded least.
func NewMinimalOblivious(q *Hypercube) RoutingStrategy { return routing.NewMinimalOblivious(q) }

// NewAdaptive returns the feedback-driven strategy (see
// AdaptiveStrategy); wire it to a run with RunStrategy, which attaches
// the queue-depth recorder and fault listener for it.
func NewAdaptive(q *Hypercube) *AdaptiveStrategy { return routing.NewAdaptive(q) }

// PatternDemand builds one of the named traffic patterns
// (TrafficPatterns) over q as strategy demands.
func PatternDemand(q *Hypercube, pattern string, seed int64) ([]RoutingPair, error) {
	return traffic.PatternPairs(q, pattern, seed)
}

// StrategyTemplates draws one open-loop route template per pair from a
// strategy (seeded, replayable).
func StrategyTemplates(s RoutingStrategy, q *Hypercube, pairs []RoutingPair, flits int, seed int64) ([]*Message, error) {
	return routing.Templates(s, q, pairs, flits, seed)
}

// RunStrategy executes one strategy over a traffic demand through the
// windowed open-loop engine: cfg.Windows contiguous measurement
// windows, route templates re-drawn from s between windows (a feedback
// strategy re-plans on observed queue depths, and under cfg.Faults
// learns dead links), counters aggregated across the whole run.
func RunStrategy(s RoutingStrategy, q *Hypercube, pairs []RoutingPair, tr *ArrivalTrace, cfg StrategyRunConfig) (*StrategyRunResult, error) {
	return routing.Run(s, q, pairs, tr, cfg)
}

// TrafficPatterns lists the named demand patterns PatternDemand
// accepts: permutation, transpose, bitreversal, hotspot, tornado.
func TrafficPatterns() []string { return append([]string(nil), traffic.Patterns...) }
