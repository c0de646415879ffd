package netsim

import (
	"fmt"
	"slices"
)

// Engine is the reusable high-throughput core behind Simulate. All
// per-run state lives in flat, densely indexed slices that are grown
// once and reused across runs, so a warm Engine performs no per-step
// (and almost no per-run) allocation:
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
// An Engine is not safe for concurrent use. Every package-level entry
// point — Simulate, SimulateFaults, SimulateWormhole, SimulateBatch,
// SimulateOpenLoop and all the sharded variants — borrows its Engine
// from one pool (enginePool, an idlePool the garbage collector never
// empties) for the run and returns it after, so whichever entry point
// runs next finds buffers already grown by the last; hold a private
// Engine only when a single goroutine runs many simulations back to
// back.
type Engine struct {
	// Link-id numbering. The dense table path is used for the common
	// case of small non-negative external ids (hypercube EdgeIDs are
	// already dense); sparse or negative id spaces fall back to a map.
	stampGen uint32
	stamp    []uint32
	denseOf  []int32
	sparse   map[int]int32

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

	// Worklist double buffer, per-step arrival batch, enqueue batch.
	work     []int32
	scratch  []int32
	arrivals []int32
	enq      []int32

	// Fault-path scratch (SimulateFaults): dense link id → external
	// id for fault queries and blame, per-message dead flags, the
	// kill batch collected per down link, and the per-step batch of
	// permanently-down links whose kills are deferred to the end of
	// the transfer phase (see SimulateFaults).
	ext  []int
	dead []bool
	kill []int32
	down []int32

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
	// olKeys is the scratch of the open loop's ordering sorts: packed
	// msg<<32 | position (or slot) keys, sorted with slices.Sort so no
	// comparator chases the slot table.
	olKeys []uint64

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

	res *Result

	// probe, when non-nil, receives observation events (see probe.go).
	// Every call site is guarded by a nil-check on this one field so a
	// probe-less run is bit-identical to the pre-probe engine.
	probe Probe
}

// NewEngine returns an empty Engine; buffers grow on first use.
func NewEngine() *Engine {
	return &Engine{sparse: make(map[int]int32)}
}

// enginePool serves every entry point, the sharded runners included.
var enginePool = idlePool[Engine]{new: NewEngine}

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
// engine path (Simulate, SimulateFaults, simulateWormhole, and the
// sharded engine) starts here, so flit validation and numbering cannot
// drift between them. A warm engine performs no allocation in this
// pass (pinned by TestNumberAllNoAllocs).
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
		for _, id := range m.Route {
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

// Simulate runs the synchronous simulation on this Engine's scratch
// buffers. Semantics and results are identical to SimulateReference;
// see the package documentation for the model.
func (e *Engine) Simulate(msgs []*Message, mode Mode) (*Result, error) {
	shape, err := e.numberAll(msgs)
	if err != nil {
		return nil, err
	}
	links := shape.links
	totalFlits, maxRoute := shape.totalFlits, shape.maxRoute
	e.growState(len(msgs), shape.total, int(links))
	if e.probe != nil {
		e.fillExt(msgs, links)
		e.beginProbe(msgs, links, mode, false)
	}

	res := &Result{}
	e.res = res
	remaining := 0
	for i, m := range msgs {
		e.flits[i] = m.Flits
		p0, p1 := e.off[i], e.off[i+1]
		if p0 == p1 {
			continue
		}
		e.arrived[p0] = m.Flits
		remaining++
		e.enqueue(p0)
	}

	limit := stepLimit(totalFlits, maxRoute, len(msgs))
	step := 0
	for remaining > 0 {
		step++
		if step > limit {
			return nil, fmt.Errorf("netsim: no progress after %d steps", limit)
		}
		cur := e.work
		e.work = e.scratch[:0]
		arr := e.arrivals[:0]
		// Transfer phase: only links with sendable flits are visited.
		for _, l := range cur {
			if e.credit[l] <= 0 {
				e.inWork[l] = false
				continue
			}
			prev := int32(-1)
			p := e.qhead[l]
			for p >= 0 && e.arrived[p]-e.crossed[p] <= 0 {
				prev = p
				p = e.qnext[p]
			}
			if p < 0 { // defensive: credit promised a sendable request
				e.credit[l] = 0
				e.inWork[l] = false
				continue
			}
			e.crossed[p]++
			e.credit[l]--
			res.FlitsMoved++
			if e.probe != nil {
				e.probe.FlitMoved(step, e.posMsg[p], l)
			}
			arr = append(arr, p)
			if e.crossed[p] == e.flits[e.posMsg[p]] {
				nx := e.qnext[p]
				if prev < 0 {
					e.qhead[l] = nx
				} else {
					e.qnext[prev] = nx
				}
				if nx < 0 {
					e.qtail[l] = prev
				}
				e.qlen[l]--
				e.queued[p] = false
			}
			if e.credit[l] > 0 {
				e.work = append(e.work, l)
			} else {
				e.inWork[l] = false
			}
		}
		// Credit arrivals after all transfers resolved so a flit moves
		// at most one link per step. Credits, deliveries, and the
		// worklist are order-independent; only the order in which new
		// requests join a link's FIFO is observable. Each position
		// arrives at most once per step, so the enqueue set is
		// duplicate-free — sort just that (typically far smaller than
		// the arrival batch) into ascending position order, which is
		// (message id, hop) order: the documented FIFO tie-break.
		enq := e.enq[:0]
		for _, p := range arr {
			mi := e.posMsg[p]
			next := p + 1
			if next == e.off[mi+1] {
				if e.probe != nil {
					e.probe.FlitDelivered(step, mi)
				}
				if e.crossed[p] == e.flits[mi] {
					remaining--
					res.DeliveredMsgs++
					if e.probe != nil {
						e.probe.MsgDone(step, mi, true)
					}
				}
				continue
			}
			switch mode {
			case CutThrough:
				e.arrived[next]++
				if e.queued[next] {
					e.addCredit(e.route[next], 1)
				}
			case StoreAndForward:
				e.buffer[next]++
				if e.buffer[next] == e.flits[mi] {
					e.arrived[next] = e.flits[mi]
					if e.queued[next] {
						e.addCredit(e.route[next], e.flits[mi]-e.crossed[next])
					}
				}
			}
			if !e.queued[next] && e.arrived[next] > 0 {
				enq = append(enq, next)
			}
		}
		slices.Sort(enq)
		for _, p := range enq {
			e.enqueue(p)
		}
		e.enq = enq
		e.arrivals = arr
		e.scratch = cur[:0]
		if e.probe != nil {
			e.probe.StepEnd(step, e.qlen[:links])
		}
	}
	res.Steps = step
	res.DeliveredMsgs += countEmptyRoutes(msgs)
	e.res = nil
	return res, nil
}

// number runs the contiguous link-numbering pass, filling off, route,
// posMsg, and returns the number of distinct links.
func (e *Engine) number(msgs []*Message, total, minID, maxID int) int32 {
	e.off = grow(e.off, len(msgs)+1)
	e.route = grow(e.route, total)
	e.posMsg = grow(e.posMsg, total)
	e.flits = grow(e.flits, len(msgs))

	useTable := maxID < 0 || (minID >= 0 && maxID < 4*total+1024)
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
				v, ok := e.sparse[id]
				if ok {
					d = v
				} else {
					d = links
					links++
					e.sparse[id] = d
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

// growState sizes and resets the per-position, per-link, and worklist
// scratch for a run with the given shape.
func (e *Engine) growState(nMsgs, total, links int) {
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
	e.work = e.work[:0]
	e.scratch = e.scratch[:0]
}

// enqueue appends position p to its link's FIFO, updates the peak
// queue metric, and activates the link if p brings sendable flits.
func (e *Engine) enqueue(p int32) {
	l := e.route[p]
	if e.qtail[l] < 0 {
		e.qhead[l] = p
	} else {
		e.qnext[e.qtail[l]] = p
	}
	e.qtail[l] = p
	e.qnext[p] = -1
	e.queued[p] = true
	e.qlen[l]++
	if e.qlen[l] > e.res.MaxLinkQueue {
		e.res.MaxLinkQueue = e.qlen[l]
	}
	if avail := e.arrived[p] - e.crossed[p]; avail > 0 {
		e.addCredit(l, avail)
	}
}

// addCredit records c newly sendable flits on link l, scheduling the
// link into the next step's worklist on a zero→positive transition.
func (e *Engine) addCredit(l int32, c int) {
	if e.credit[l] == 0 && c > 0 && !e.inWork[l] {
		e.inWork[l] = true
		e.work = append(e.work, l)
	}
	e.credit[l] += c
}

func grow[T int | int32 | uint32 | uint8 | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
