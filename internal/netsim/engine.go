package netsim

import "fmt"

// Engine is the reusable high-throughput core behind every simulator
// of this package. All per-run state lives in flat, densely indexed
// slices that are grown once and reused across runs, so a warm Engine
// performs no per-step (and almost no per-run) allocation:
//
//   - A numbering pass over the message routes assigns each distinct
//     directed link a contiguous id, so per-link state is slice lookups
//     instead of map operations. The pass is generation-stamped: reuse
//     needs no clearing.
//   - Per-link FIFO queues are intrusive singly-linked lists threaded
//     through a flat next-pointer array indexed by route position.
//   - An active-link worklist holds exactly the links with at least one
//     immediately sendable flit (tracked by a per-link credit counter),
//     so each step touches only links that can move a flit — idle links
//     waiting on upstream traffic cost nothing.
//
// Arbitration is identical to the original simulator: per link, the
// first queued request with an available flit crosses; requests
// enqueued on the same step are ordered by message id (then hop).
//
// Its step loops are the closed-loop kernel (cl, sharded.go: every
// closed-loop entry point at every shard count), the open loop
// (openLoop, every open-loop entry point at every shard count) and the
// wormhole model. Both buffered loops split a run over the Engine's
// one partition.
//
// An Engine is not safe for concurrent use. Every package-level entry
// point — Simulate, SimulateFaults, SimulateWormhole, SimulateBatch,
// SimulateOpenLoop and all the sharded variants — borrows its Engine
// from one pool (enginePool, an idlePool the garbage collector never
// empties) for the run and returns it after, so whichever entry point
// runs next finds buffers already grown by the last.
type Engine struct {
	// Link-id numbering. The dense table path is used for the common
	// case of small non-negative external ids (hypercube EdgeIDs are
	// already dense); sparse or negative id spaces fall back to a map.
	stampGen uint32
	stamp    []uint32
	denseOf  []int32
	sparse   map[int]int32
	// bySparse records that the last numbering pass used the map, so
	// the stamps left by an earlier table pass are stale (denseID).
	bySparse bool

	// Per-position state, flat across all messages' route hops.
	// Position p of message i is off[i] + hop.
	route   []int32 // dense link id crossed at this position
	posMsg  []int32 // owning message
	arrived []int   // flits available at the tail of this link
	crossed []int   // flits that have crossed this link
	buffer  []int   // store-and-forward: flits pending full buffering
	queued  []bool  // position currently sits in its link's queue
	qnext   []int32 // intrusive FIFO next pointer

	// Per-message state.
	off   []int32
	flits []int

	// Per-link state.
	qhead  []int32
	qtail  []int32
	credit []int // immediately sendable flits across queued requests
	qlen   []int // requests currently enqueued
	inWork []bool

	// Fault-path scratch: dense link id → external id for fault
	// queries, blame and probes; the closed-loop kernel's per-message
	// dead flags; the kill batch per down link.
	ext  []int
	dead []bool
	kill []int32
	// The run's resolved fault set (markFaults): mayFail flags the
	// dense links whose Status the kernels ask, and faultIDs receives
	// the external ids a listing oracle appends.
	mayFail  []bool
	faultIDs []int

	// Open-loop slot arena (SimulateOpenLoop and its sharded form).
	// Messages are numbered as route *templates*; each injected arrival
	// occupies a slot whose position range is recycled through its
	// template's free stack, so state is proportional to the in-flight
	// window, not the injected total. The free stacks are intrusive:
	// olFreeHead holds each template's top free slot and olFreeNext
	// links a free slot to the next one below it, so pushing and
	// popping never allocate. The arena arrays grow by append (the
	// generic grow() does not preserve contents) and are truncated, not
	// cleared, between runs; olClaim and olRecycle are the only code
	// that takes or returns a slot.
	olSlotTmpl []int32 // slot → template index
	olSlotOff  []int32 // slot → first position in the ol arrays
	olSlotMsg  []int32 // slot → trace message id (-1 when free)
	olSlotArr  []int   // slot → arrival step of the current occupant
	olSlotFl   []int   // slot → flits (fixed per template)
	olSlotDead []bool  // slot → killed this step, freed at step end
	olFreeNext []int32 // slot → next free slot of its template (-1: bottom)
	olFreeHead []int32 // template → top free slot (-1: none free)
	olLive     int     // slots in flight
	olInFlight int     // their total flits, for the livelock bound
	olKilled   []int32 // per-step batch of slots killed by faults
	olRoute    []int32 // position → dense link id (copied from template)
	olPosSlot  []int32 // position → owning slot
	olArrived  []int   // per-position state, as in the closed-loop arrays
	olCrossed  []int
	olBuffer   []int
	olQueued   []bool
	olQNext    []int32
	// olKeys is the scratch of the open loop's single-threaded sorts:
	// the StepLimit sweep's msg<<32 | slot keys and, at two or more
	// shards, the merged moves and deliveries, sorted with slices.Sort
	// so no comparator chases the slot table.
	olKeys []uint64
	// olOpts is the run's options as the open loop's workers read them
	// at two or more shards; cleared when the run ends.
	olOpts OpenLoopOpts

	// part is the shard layout of both buffered loops' runs (shard 0
	// alone at one shard): per-shard worklists, arrival batches and
	// rings, kept warm across runs like every other buffer here. An
	// Engine runs one simulation at a time, so the loops share it.
	part partition
	// cl is the closed-loop kernel's run state over part.
	cl sharded

	// Wormhole scratch (SimulateWormhole shares the numbering pass and
	// the crossed array; the channel-holding state below is its own).
	whHead, whTail []int32
	whDone         []bool
	whWaitNext     []int32
	whWaitingOn    []int32
	whHolder       []int32
	whWaitHead     []int32
	whWaitTail     []int32
	whWaitLen      []int
	whMoves        []int32

	// Active-link lists of a probed run (listActive, probeStepEnd):
	// listing is set for a probed buffered run and read at every
	// enqueue; listed flags each dense link on its shard's list; active
	// is the list StepEnd receives at two or more shards (the shards'
	// lists merged) and in the wormhole model (every link).
	listing bool
	listed  []bool
	active  []int32
}

// newEngine returns an empty Engine; buffers grow on first use.
func newEngine() *Engine {
	e := &Engine{sparse: make(map[int]int32)}
	e.cl.e, e.cl.partition = e, &e.part
	return e
}

// enginePool serves every entry point.
var enginePool = idlePool[Engine]{new: newEngine}

// stepLimit bounds a legitimate run: once a message has fully crossed
// hop j-1, its request at hop j is queued with available flits, so
// FIFO arbitration moves some flit over that link every step, and a
// link carries at most totalFlits crossings in the whole run. Each hop
// therefore costs at most totalFlits steps, giving
// maxRoute·totalFlits overall; the remaining terms are slack for
// startup, single-hop pipelining, and empty inputs. Exceeding this is
// a simulator bug (livelock), never legitimate congestion.
func stepLimit(totalFlits, maxRoute, nMsgs int) int {
	return totalFlits*maxRoute + totalFlits + nMsgs + 16
}

// routeShape summarizes the single validation/numbering scan shared by
// every engine path: the distinct-link count of the numbering pass plus
// the totals the step-limit bound and state sizing need.
type routeShape struct {
	links      int32
	total      int // Σ len(route): route positions
	maxRoute   int // longest route
	totalFlits int // Σ flits
}

// numberAll validates the messages and runs the contiguous
// link-numbering pass in one scan, returning the run's shape. Every
// engine path (the closed-loop kernel, the open loop and
// simulateWormhole) starts here, so flit validation and numbering
// cannot drift between them. A warm engine performs no allocation in
// this pass (pinned by TestNumberAllNoAllocs).
func (e *Engine) numberAll(msgs []*Message) (routeShape, error) {
	var sh routeShape
	minID, maxID := 0, -1
	seen := false
	for i, m := range msgs {
		if m.Flits < 1 {
			return sh, fmt.Errorf("netsim: message %d has %d flits", i, m.Flits)
		}
		sh.totalFlits += m.Flits
		if len(m.Route) > sh.maxRoute {
			sh.maxRoute = len(m.Route)
		}
		for _, id32 := range m.Route {
			id := int(id32)
			if !seen || id < minID {
				minID = id
			}
			if !seen || id > maxID {
				maxID = id
			}
			seen = true
		}
		sh.total += len(m.Route)
	}
	sh.links = e.number(msgs, sh.total, minID, maxID)
	return sh, nil
}

// number runs the contiguous link-numbering pass, filling off, route,
// posMsg, and returns the number of distinct links.
func (e *Engine) number(msgs []*Message, total, minID, maxID int) int32 {
	e.off = grow(e.off, len(msgs)+1)
	e.route = grow(e.route, total)
	e.posMsg = grow(e.posMsg, total)
	e.flits = grow(e.flits, len(msgs))

	useTable := maxID < 0 || (minID >= 0 && maxID < 4*total+1024)
	e.bySparse = !useTable
	if useTable {
		e.stamp = grow(e.stamp, maxID+1)
		e.denseOf = grow(e.denseOf, maxID+1)
		e.stampGen++
		if e.stampGen == 0 { // generation wrapped: invalidate explicitly
			for i := range e.stamp {
				e.stamp[i] = 0
			}
			e.stampGen = 1
		}
	} else {
		clear(e.sparse)
	}

	var links int32
	pos := int32(0)
	for i, m := range msgs {
		e.off[i] = pos
		for _, id := range m.Route {
			var d int32
			if useTable {
				if e.stamp[id] == e.stampGen {
					d = e.denseOf[id]
				} else {
					d = links
					links++
					e.stamp[id] = e.stampGen
					e.denseOf[id] = d
				}
			} else {
				v, ok := e.sparse[int(id)]
				if ok {
					d = v
				} else {
					d = links
					links++
					e.sparse[int(id)] = d
				}
			}
			e.route[pos] = d
			e.posMsg[pos] = int32(i)
			pos++
		}
	}
	e.off[len(msgs)] = pos
	return links
}

// denseID returns the dense id the last numbering pass gave external
// link id, and false when that run's routes never cross it.
func (e *Engine) denseID(id int) (int32, bool) {
	if e.bySparse {
		d, ok := e.sparse[id]
		return d, ok
	}
	if id < 0 || id >= len(e.stamp) || e.stamp[id] != e.stampGen {
		return 0, false
	}
	return e.denseOf[id], true
}

// growState sizes and resets the per-position and per-link state for
// a run with the given shape.
func (e *Engine) growState(total, links int) {
	e.arrived = grow(e.arrived, total)
	e.crossed = grow(e.crossed, total)
	e.buffer = grow(e.buffer, total)
	e.queued = grow(e.queued, total)
	e.qnext = grow(e.qnext, total)
	for i := 0; i < total; i++ {
		e.arrived[i] = 0
		e.crossed[i] = 0
		e.buffer[i] = 0
		e.queued[i] = false
	}
	e.qhead = grow(e.qhead, links)
	e.qtail = grow(e.qtail, links)
	e.credit = grow(e.credit, links)
	e.qlen = grow(e.qlen, links)
	e.inWork = grow(e.inWork, links)
	for l := 0; l < links; l++ {
		e.qhead[l] = -1
		e.qtail[l] = -1
		e.credit[l] = 0
		e.qlen[l] = 0
		e.inWork[l] = false
	}
}

func grow[T int | int32 | uint32 | uint8 | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
