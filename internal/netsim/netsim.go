// Package netsim is a synchronous link-level network simulator under
// the paper's cost model (§3): in one time unit every processor can
// send one packet (flit) over each outgoing link. It measures the
// §7 bit-serial routing claims: with M-flit messages, store-and-forward
// routing pays Θ(n·M) while pipelined routing over the multiple-copy
// CCC embedding completes in O(M + n).
//
// Two switching modes are provided:
//
//   - StoreAndForward: a message must be fully buffered at a node
//     before its first flit crosses the next link (message switching).
//   - CutThrough: flits stream as soon as they arrive (virtual
//     cut-through). This substitutes for the paper's wormhole model:
//     blocked messages buffer in nodes instead of holding channels, so
//     the simulator is deadlock-free on any route set while preserving
//     the O(M + distance) pipelining behaviour the paper exploits.
//     DESIGN.md records the substitution.
//
// Routes are sequences of directed link ids (any dense numbering).
// Each link carries one flit per step; contention resolves FIFO by
// arrival step, ties by message id (deterministic).
//
// The simulation core is a dense, worklist-driven Engine: a numbering
// pass gives links contiguous ids, per-link FIFOs live in flat reusable
// slices, and each step touches only links that can move a flit. Two
// buffered step loops run on it, each one loop at every shard count
// whose transfer and arrival phases run per shard over the Engine's
// one partition: the closed-loop kernel of every closed-loop run, and
// the open loop. Every entry point — closed-loop, open-loop, wormhole,
// and their sharded forms — borrows its Engine from one pool that the
// garbage collector never empties, so a warm Engine's buffers serve
// whichever simulation runs next; SimulateBatch fans independent
// simulations out across GOMAXPROCS workers. The original
// map-scanning simulator is retained as SimulateReference — the golden
// model for equivalence tests and old-vs-new benchmarks.
package netsim

import "fmt"

// Mode selects the switching discipline.
type Mode int

const (
	// StoreAndForward buffers whole messages at every hop.
	StoreAndForward Mode = iota
	// CutThrough pipelines flits hop by hop (virtual cut-through).
	CutThrough
)

func (m Mode) String() string {
	switch m {
	case StoreAndForward:
		return "store-and-forward"
	case CutThrough:
		return "cut-through"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Message is one routed transfer: Flits flits following Route (a
// sequence of directed link ids from source to destination).
//
// Route is read-only. Builders may alias shared arenas: a template
// set's routes are capped spans (ids[a:b:b]) of one id array, for an
// embedding's templates the route cache behind core.Embedding's
// metrics. netsim never writes a route, and callers must not write one
// either, since the write would reach every message, and every later
// metric, that reads the same span. Appending to a route is safe: the
// cap makes append copy.
type Message struct {
	Route []int32
	Flits int
}

// Result reports a completed simulation.
type Result struct {
	Steps      int // steps until the last flit arrived
	FlitsMoved int // total link crossings
	// MaxLinkQueue is the largest number of messages simultaneously
	// enqueued on any one directed link at any point in the run: every
	// enqueue samples the queue length, so transient peaks between
	// steps are counted. A message waiting for upstream flits still
	// occupies its queue slot; a message leaves the queue only once its
	// last flit has crossed that link.
	MaxLinkQueue  int
	DeliveredMsgs int
	// FailedMsgs and DroppedFlits are populated only by the
	// fault-aware path (SimulateFaults); the fault-free simulators
	// always leave them zero. DroppedFlits counts the flit-hops of
	// failed messages that never happened, so the conservation
	// invariant generalizes to
	//
	//	FlitsMoved + DroppedFlits == Σ flits·len(route)
	//
	// for every run, faulty or not.
	FailedMsgs   int
	DroppedFlits int
}

// Simulate runs the synchronous simulation to completion. Messages
// with empty routes (source = destination) complete at step 0. The
// step limit guards against livelock bugs; it scales with the total
// work so legitimate runs never hit it (see stepLimit). Semantics and
// results are identical to SimulateReference.
//
// It runs the closed-loop kernel (sharded.go) at one shard, inline on
// the caller's goroutine, with no fault or probe hook taken. Simulate
// is safe for concurrent use: each call borrows a pooled Engine, so
// scratch buffers are reused across calls without locking.
func Simulate(msgs []*Message, mode Mode) (*Result, error) {
	return SimulateSharded(msgs, mode, 1)
}

func countEmptyRoutes(msgs []*Message) int {
	n := 0
	for _, m := range msgs {
		if len(m.Route) == 0 {
			n++
		}
	}
	return n
}
