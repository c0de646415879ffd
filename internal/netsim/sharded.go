package netsim

import (
	"fmt"
	"slices"
	"sync"
)

// This file is the closed-loop kernel, the one closed loop behind
// every closed-loop entry point — Simulate, SimulateBatch,
// SimulateFaults, SimulateProbed and the sharded entry points — at
// every shard count. The dense contiguous link-id space of a run is
// split into per-shard ranges (partition), each kept by one goroutine
// that owns the intrusive FIFOs, credit counters, and active-link
// worklist of exactly its links. A simulation step is
//
//	transfer(k) ∥ …  →  [barrier: kills]  →  arrive(k) ∥ …  →  [barrier: step end]
//
// Within the transfer phase a shard only reads and writes the state of
// links it owns (per-link transfer decisions depend on nothing else),
// plus the position rows of the flits it moves — and a position's link
// is owned by exactly one shard, so position rows have a single writer
// too. A moved flit whose next hop's link belongs to another shard is
// a boundary flit: it is pushed into the bounded SPSC ring for that
// (producer, consumer) shard pair (overflow goes to an unbounded
// producer-owned spill slice) and drained by the owning shard in the
// arrival phase, after the barrier. The arrival phase then mutates
// only consumer-owned link state, because a position's enqueue target
// is its own link.
//
// The caller's goroutine coordinates (stepBarrier): it runs shard 0's
// phases and, between the phases, the step's single-threaded work
// while the workers of shards 1 and up wait — the kill action replays
// permanently-down links in globally ascending dense-id order, and the
// step-end action folds per-shard delivery counts, flushes buffered
// probe events in deterministic order, and decides termination.
// Everything global is written only there, which is what makes the
// kernel *bit-identical* across shard counts — same Result, same
// FaultResult, same Probe-visible distributions — rather than merely
// statistically equivalent. The equivalence is enforced by
// TestSimulateShardedEquivalence and FuzzSimulateSharded over the fuzz
// corpus, and FuzzSimulate holds the kernel to SimulateReference.
//
// One shard runs inline: no worker, no barrier wait, no owner table
// (every next hop is local), and a probe is called at each event —
// moves in transfer, kills in the kill action, deliveries and StepEnd
// in arrive, timeout failures after the last StepEnd — instead of
// through the buffers.
//
// Determinism argument, in brief:
//   - FIFO order: same-step enqueues on a link are sorted in ascending
//     position order. All enqueues targeting link l happen in owner(l)'s
//     arrival phase, so a per-shard sort equals the global sort's
//     per-link order.
//   - Transfer decisions: per link, a function of that link's FIFO and
//     credits only; worklist order within a step is immaterial.
//   - Kills: canonical ascending-link order between phases, on a kill set
//     that is invariant across the transfer phase (down links move
//     nothing, so their sendable sets cannot change mid-phase).
//   - Probes: at two or more shards, per-shard event buffers are merged
//     at the step end sorted by link id (moves) and message id
//     (deliveries); a link moves at most one flit per step and a
//     message delivers at most one flit per step, so the sort keys are
//     unique.

// ShardStat is the per-shard accounting of one sharded run, used by
// balance reports and the per-shard conservation invariant
//
//	FlitsMoved + DroppedFlits == InjectedHops
//
// (every flit-hop injected on a shard's links is eventually either
// moved by that shard or dropped with its message).
type ShardStat struct {
	// Links is the number of dense link ids the shard owns.
	Links int
	// FlitsMoved counts flits moved across this shard's links.
	FlitsMoved int
	// DroppedFlits counts flit-hops on this shard's links dropped by
	// message failures (fault path only).
	DroppedFlits int
	// InjectedHops is Σ flits over this shard's route positions: the
	// flit-hops this shard's links were asked to carry.
	InjectedHops int
	// BoundaryOut counts flits this shard moved whose next hop belongs
	// to another shard (handed over through a ring or spill).
	BoundaryOut int
}

// killEvent buffers one message failure's probe events between the
// closed-loop kernel's kill action and its step-end probe flush.
type killEvent struct {
	msg     int32
	dropped int
}

// shardState is the state of one shard, in both kernels. The shard
// owns dense links [lo, hi) and its goroutine is the only one that
// touches their FIFO heads/tails, credits, queue lengths, and worklist
// outside the coordinator's single-threaded step work.
type shardState struct {
	lo, hi  int32
	work    []int32 // active-link worklist (this shard's links only)
	scratch []int32 // worklist double buffer
	arr     []int32 // local arrivals of the current step (arrive adds the peers')
	enq     []int32 // the closed loop's positions to enqueue this step (own links only)
	down    []int32 // permanently-down links found this transfer phase

	// enqKey is the open loop's enq: msg<<32 | position keys, sorted
	// as plain integers into (message id, hop) order.
	enqKey []uint64

	out   []*spscRing // boundary rings to each destination shard
	spill [][]int32   // ring-overflow batches to each destination shard

	// Probe event buffers at two or more shards: packed moves
	// (link<<32|msg), flushed sorted after the transfer phase, and the
	// closed loop's deliveries (msg<<1|completed), flushed sorted at
	// the step end.
	pbMove []uint64
	pbArrv []uint64

	// done buffers the open loop's final-hop arrivals on this shard's
	// links at two or more shards, as msg<<32 | slot keys: every
	// completion (flagged olDoneBit), and with a probe every delivered
	// flit. The loop sorts and folds them in message-id order (the
	// canonical merge order for the probe, LatencySink and PerMessage)
	// and recycles the completed slots.
	done []uint64

	moved         int
	maxQ          int
	deliveredStep int // folded into the run totals at the step end
	injected      int
	dropped       int
	boundary      int

	// active lists, on a probed run, this shard's links that entered
	// their queue since the last StepEnd or were non-empty at it, each
	// once (Engine.listed); see Engine.probeStepEnd.
	active []int32
}

// stepBarrier separates the phases of a step at two or more shards.
// The run's own goroutine coordinates: release lets the workers of
// shards 1 and up into a phase, the coordinator runs shard 0's part of
// it, and gather waits until every worker has finished its part, so
// the step's single-threaded work runs between a gather and the next
// release, on the caller's goroutine. A worker calls wait at the end
// of each phase and once before its first. The lock hand-off orders
// every write before a barrier before every read after it, which is
// the memory-model backbone of the shared flat arrays. With no workers
// (one shard) gather and release return at once.
type stepBarrier struct {
	mu      sync.Mutex
	arrived sync.Cond // the coordinator waits here for the workers
	resumed sync.Cond // the workers wait here for the next release
	n       int       // workers: the shards besides shard 0
	count   int       // workers arrived since the last release
	gen     uint64
}

func (b *stepBarrier) init(n int) {
	b.n, b.count, b.gen = n, 0, 0
	b.arrived.L, b.resumed.L = &b.mu, &b.mu
}

// wait reports a worker done with its phase and blocks until the
// coordinator's next release.
func (b *stepBarrier) wait() {
	b.mu.Lock()
	g := b.gen
	b.count++
	if b.count == b.n {
		b.arrived.Signal()
	}
	for b.gen == g {
		b.resumed.Wait()
	}
	b.mu.Unlock()
}

// gather blocks the coordinator until every worker has called wait.
func (b *stepBarrier) gather() {
	if b.n == 0 {
		return
	}
	b.mu.Lock()
	for b.count < b.n {
		b.arrived.Wait()
	}
	b.mu.Unlock()
}

// release lets the waiting workers into the next phase.
func (b *stepBarrier) release() {
	if b.n == 0 {
		return
	}
	b.mu.Lock()
	b.count = 0
	b.gen++
	b.resumed.Broadcast()
	b.mu.Unlock()
}

// partition is the shard layout of one run, the one type both kernels
// split a run with, kept by the pooled Engine: contiguous dense-id
// ranges of near-equal size (dense ids follow route order, so ranges
// inherit whatever locality the route construction has), the per-shard
// states, and the barrier, WaitGroup, step and stop flag of the
// workers of shards 1 and up. One shard has no owner table, no rings
// and no workers.
type partition struct {
	n      int // shards of the current run
	states []*shardState
	owner  []uint8 // dense link → owning shard, at two or more shards
	cuts   []int32
	bar    stepBarrier
	wg     sync.WaitGroup
	step   int  // the step the workers' phases run
	done   bool // read by the workers after a release: return
}

// split lays a run of links out over shards, which the caller clamps
// to [1, min(links, 255)] (the owner table is uint8), and resets every
// shard's state for the run. Each shard's worklists and arrival batch
// grow once here to its own link count, so an Engine meeting a new
// shard count does not double them up from empty step by step; sizing
// them by the run's total link count would multiply the per-link
// memory by the shard count. What only one loop or only a probed run
// reads grows the same way where that run starts: the closed loop's
// enq in sharded.run, the active lists in listActive.
func (pt *partition) split(links int32, shards int) {
	pt.n, pt.step, pt.done = shards, 0, false
	pt.bar.init(shards - 1)
	pt.cuts = grow(pt.cuts, shards+1)
	for s := 0; s <= shards; s++ {
		pt.cuts[s] = int32(int64(links) * int64(s) / int64(shards))
	}
	if shards > 1 {
		pt.owner = grow(pt.owner, int(links))
		for s := 0; s < shards; s++ {
			for l := pt.cuts[s]; l < pt.cuts[s+1]; l++ {
				pt.owner[l] = uint8(s)
			}
		}
	}
	for len(pt.states) < shards {
		pt.states = append(pt.states, &shardState{})
	}
	for k, st := range pt.states[:shards] {
		st.lo, st.hi = pt.cuts[k], pt.cuts[k+1]
		own := int(st.hi - st.lo)
		st.work = slices.Grow(st.work[:0], own)
		st.scratch = slices.Grow(st.scratch[:0], own)
		st.arr = slices.Grow(st.arr[:0], own)
		st.enqKey = st.enqKey[:0]
		st.down = st.down[:0]
		st.pbMove = st.pbMove[:0]
		st.pbArrv = st.pbArrv[:0]
		st.done = st.done[:0]
		st.moved, st.maxQ, st.deliveredStep = 0, 0, 0
		st.injected, st.dropped, st.boundary = 0, 0, 0
		if shards == 1 {
			continue
		}
		if len(st.out) < shards {
			// A shard never sends to itself: its own slot keeps no ring.
			out := make([]*spscRing, shards)
			copy(out, st.out)
			for d := len(st.out); d < shards; d++ {
				if d != k {
					out[d] = newSPSCRing()
				}
			}
			st.out = out
			st.spill = append(st.spill, make([][]int32, shards-len(st.spill))...)
		}
		for d, r := range st.out[:shards] {
			if r != nil {
				r.head.Store(0)
				r.tail.Store(0)
			}
			st.spill[d] = st.spill[d][:0]
		}
	}
}

// spillTo appends boundary position p to the spill batch for shard d,
// once that pair's ring is full. The batch grows by doubling from one
// ring's capacity: plain append grows a large slice by about 1.25x, so
// a cold Engine's first sharded run on a whole cube would spend dozens
// of allocations per shard pair growing its spills.
func (st *shardState) spillTo(d uint8, p int32) {
	s := st.spill[d]
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), ringCap))
	}
	st.spill[d] = append(s, p)
}

// shardOf returns the state of the shard owning dense link l.
func (pt *partition) shardOf(l int32) *shardState {
	if pt.n == 1 {
		return pt.states[0]
	}
	return pt.states[pt.owner[l]]
}

// moved is the number of flits the run's shards have moved so far.
func (pt *partition) moved() int {
	m := 0
	for _, st := range pt.states[:pt.n] {
		m += st.moved
	}
	return m
}

// flushMoves emits the shards' buffered moves of one step to probe
// sorted by (link, message), unique since a link moves at most one
// flit per step, and returns buf for reuse.
func (pt *partition) flushMoves(probe Probe, step int, buf []uint64) []uint64 {
	buf = buf[:0]
	for _, st := range pt.states[:pt.n] {
		buf = append(buf, st.pbMove...)
		st.pbMove = st.pbMove[:0]
	}
	slices.Sort(buf)
	for _, v := range buf {
		probe.FlitMoved(step, int32(uint32(v)), int32(v>>32))
	}
	return buf
}

// fold adds the shards' moved flits and peak queues to res and, when
// wantStats, returns the per-shard accounting.
func (pt *partition) fold(res *Result, wantStats bool) []ShardStat {
	var stats []ShardStat
	if wantStats {
		stats = make([]ShardStat, pt.n)
	}
	for k, st := range pt.states[:pt.n] {
		res.FlitsMoved += st.moved
		res.MaxLinkQueue = max(res.MaxLinkQueue, st.maxQ)
		if wantStats {
			stats[k] = ShardStat{
				Links:        int(st.hi - st.lo),
				FlitsMoved:   st.moved,
				DroppedFlits: st.dropped,
				InjectedHops: st.injected,
				BoundaryOut:  st.boundary,
			}
		}
	}
	return stats
}

// stop ends the run's workers, if it started any: each returns when
// this release shows it done.
func (pt *partition) stop() {
	if pt.n > 1 {
		pt.done = true
		pt.bar.release()
		pt.wg.Wait()
	}
}

// addShardCredit records c newly sendable flits on link l, scheduling
// the link into shard st's worklist, the owning shard's, on a
// zero→positive transition.
func (e *Engine) addShardCredit(st *shardState, l int32, c int) {
	if e.credit[l] == 0 && c > 0 && !e.inWork[l] {
		e.inWork[l] = true
		st.work = append(st.work, l)
	}
	e.credit[l] += c
}

// sharded is the closed-loop kernel's run state, a part of the Engine
// whose numbering pass, flat state arrays and partition it runs on.
// Run globals are written only during setup or in the coordinator's
// single-threaded step work.
type sharded struct {
	e *Engine // the Engine holding this runner
	*partition

	msgs     []*Message
	mode     Mode
	faults   LinkFaults
	res      *Result
	fr       *FaultResult // nil on the fault-free path
	probe    Probe        // called at each event at one shard, else buffered
	links    int32
	limit    int
	graceful bool
	remain   int
	err      error

	killEv []killEvent
	mvBuf  []uint64
	arBuf  []uint64
}

// getSharded borrows an Engine from enginePool for one closed-loop run
// and returns its runner; release returns the Engine, first dropping
// the run's references to caller-owned objects so an idle Engine keeps
// none of them alive.
func getSharded() *sharded {
	return &enginePool.get().cl
}

func (sh *sharded) release() {
	sh.msgs, sh.faults, sh.res, sh.fr = nil, nil, nil, nil
	sh.probe, sh.err = nil, nil
	enginePool.put(sh.e)
}

// negativeShards is the error every sharded entry point returns for a
// shard count below zero.
func negativeShards(shards int) error {
	return fmt.Errorf("netsim: negative shard count %d", shards)
}

// SimulateSharded is Simulate partitioned across shards worker
// goroutines. Results are bit-identical to Simulate for every shard
// count; shards 0 and 1 run the kernel inline, as Simulate does, and
// negative shard counts are an error, as in every sharded entry point.
func SimulateSharded(msgs []*Message, mode Mode, shards int) (*Result, error) {
	if shards < 0 {
		return nil, negativeShards(shards)
	}
	sh := getSharded()
	res, _, _, err := sh.run(msgs, mode, FaultOpts{}, false, shards, false)
	sh.release()
	return res, err
}

// SimulateShardedProbed is SimulateSharded with an observation probe.
// At two or more shards the per-shard event buffers are merged at each
// step barrier in deterministic link-id (moves) and message-id
// (deliveries) order, so p observes one canonical stream carrying the
// same events as the one-shard run (SimulateProbed), which calls p at
// each event.
func SimulateShardedProbed(msgs []*Message, mode Mode, shards int, p Probe) (*Result, error) {
	if shards < 0 {
		return nil, negativeShards(shards)
	}
	sh := getSharded()
	res, _, _, err := sh.run(msgs, mode, FaultOpts{Probe: p}, false, shards, false)
	sh.release()
	return res, err
}

// SimulateFaultsSharded is SimulateFaults partitioned across shards
// workers (0 and 1 run one shard inline, as SimulateFaults does). Each
// shard evaluates the fault status of its own links (fault schedules
// are per-step-deterministic, so no coordination is needed); the kills
// themselves run at the step barrier in ascending link order, so the
// FaultResult is bit-identical for every shard count.
// FaultOpts.Probe is honored as in SimulateShardedProbed.
func SimulateFaultsSharded(msgs []*Message, mode Mode, opts FaultOpts, shards int) (*FaultResult, error) {
	if shards < 0 {
		return nil, negativeShards(shards)
	}
	sh := getSharded()
	_, fr, _, err := sh.run(msgs, mode, opts, true, shards, false)
	sh.release()
	return fr, err
}

// run is the shared core of every entry point of the kernel. faultPath
// selects SimulateFaults semantics (Outcomes, kills, graceful
// timeout); opts is ignored otherwise except for opts.Probe. The shard
// count is clamped to [1, min(links, 255)].
func (sh *sharded) run(msgs []*Message, mode Mode, opts FaultOpts, faultPath bool, shards int, wantStats bool) (*Result, *FaultResult, []ShardStat, error) {
	e := sh.e
	shape, err := e.numberAll(msgs)
	if err != nil {
		return nil, nil, nil, err
	}
	links := shape.links
	shards = max(1, min(shards, int(links), 255)) // owner table is uint8

	limit := opts.StepLimit
	graceful := faultPath && limit > 0
	if !graceful {
		h := 0
		if faultPath && opts.Faults != nil {
			h = opts.Faults.Horizon()
		}
		if h < 0 {
			return nil, nil, nil, fmt.Errorf("netsim: unbounded fault schedule requires FaultOpts.StepLimit")
		}
		limit = stepLimit(shape.totalFlits, shape.maxRoute, len(msgs)) + h
	}

	e.growState(shape.total, int(links))
	sh.split(links, shards)
	for _, st := range sh.states[:shards] {
		st.enq = slices.Grow(st.enq[:0], int(st.hi-st.lo))
	}
	e.listActive(opts.Probe != nil)

	sh.msgs = msgs
	sh.mode = mode
	sh.faults = nil
	sh.probe = opts.Probe
	sh.links = links
	sh.limit = limit
	sh.graceful = graceful
	sh.step = 1
	sh.err = nil
	sh.killEv = sh.killEv[:0]

	if faultPath {
		sh.faults = opts.Faults
		sh.fr = &FaultResult{Outcomes: make([]Outcome, len(msgs))}
		sh.res = &sh.fr.Result
		e.dead = grow(e.dead, len(msgs))
		for i := range msgs {
			e.dead[i] = false
		}
	} else {
		sh.fr = nil
		sh.res = &Result{}
	}

	if faultPath || sh.probe != nil {
		e.fillExt(msgs, links)
	}
	if sh.faults != nil {
		e.markFaults(sh.faults, links)
	}
	if sh.probe != nil {
		e.beginProbe(sh.probe, msgs, links, mode, false)
	}

	// Injection: each head position enqueued on its owning shard's
	// worklist.
	sh.remain = 0
	for i, m := range msgs {
		e.flits[i] = m.Flits
		if faultPath {
			sh.fr.Outcomes[i] = Outcome{FailedLink: -1}
		}
		p0, p1 := e.off[i], e.off[i+1]
		if p0 == p1 {
			if faultPath {
				sh.fr.Outcomes[i].Delivered = true
			}
			continue
		}
		e.arrived[p0] = m.Flits
		sh.remain++
		sh.enqueue(sh.shardOf(e.route[p0]), p0)
	}
	if wantStats {
		for p := 0; p < shape.total; p++ {
			sh.shardOf(e.route[p]).injected += e.flits[e.posMsg[p]]
		}
	}

	// The caller's goroutine runs shard 0 and, between phases, the
	// kills and the step end; shards 1 and up run on workers.
	if sh.remain > 0 {
		for k := 1; k < shards; k++ {
			sh.wg.Add(1)
			go sh.worker(k)
		}
		sh.bar.gather()
		for !sh.done {
			sh.bar.release()
			sh.transfer(0)
			sh.bar.gather()
			sh.killAction()
			sh.bar.release()
			sh.arrive(0)
			sh.bar.gather()
			sh.stepEndAction()
		}
		sh.stop()
	}
	sh.msgs = nil
	if sh.err != nil {
		return nil, nil, nil, sh.err
	}

	res := sh.res
	stats := sh.fold(res, wantStats)
	res.DeliveredMsgs += countEmptyRoutes(msgs)
	return res, sh.fr, stats, nil
}

// worker runs shard k's phases at two or more shards, in lockstep with
// the coordinator: each release lets it run one phase, transfer
// (producing boundary flits) and arrive (consuming them) in turn.
func (sh *sharded) worker(k int) {
	defer sh.wg.Done()
	for {
		sh.bar.wait()
		if sh.done {
			return
		}
		sh.transfer(k)
		sh.bar.wait()
		sh.arrive(k)
	}
}

// transfer is the transfer phase over this shard's active links: per
// link, the first queued request with an available flit crosses. Each
// moved flit goes either to the local arrival batch or across a shard
// boundary.
func (sh *sharded) transfer(k int) {
	e := sh.e
	st := sh.states[k]
	for d := range st.spill { // reclaim last step's drained batches
		st.spill[d] = st.spill[d][:0]
	}
	inline := sh.n == 1 // one shard: every next hop is local
	step := sh.step
	owner, faults, probe := sh.owner, sh.faults, sh.probe
	cur := st.work
	work := st.scratch[:0]
	arr := st.arr[:0]
	st.down = st.down[:0]
	for _, l := range cur {
		if e.credit[l] <= 0 {
			e.inWork[l] = false
			continue
		}
		if faults != nil && e.mayFail[l] {
			if dn, perm := faults.Status(e.ext[l], step); dn {
				if !perm {
					work = append(work, l)
					continue
				}
				st.down = append(st.down, l)
				e.inWork[l] = false
				continue
			}
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
		st.moved++
		mi := e.posMsg[p]
		if probe != nil {
			if inline {
				probe.FlitMoved(step, mi, l)
			} else {
				st.pbMove = append(st.pbMove, uint64(uint32(l))<<32|uint64(uint32(mi)))
			}
		}
		if e.crossed[p] == e.flits[mi] {
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
			work = append(work, l)
		} else {
			e.inWork[l] = false
		}
		next := p + 1
		if inline || next == e.off[mi+1] || owner[e.route[next]] == uint8(k) {
			arr = append(arr, p)
		} else {
			st.boundary++
			d := owner[e.route[next]]
			if !st.out[d].push(p) {
				st.spillTo(d, p)
			}
		}
	}
	st.work, st.arr = work, arr
	st.scratch = cur[:0]
}

// killAction is the step's work after the transfer phase: fail the
// sendable queued messages of every permanently-down link found this
// step, in globally ascending dense-link order (shards own ascending
// ranges, so iterating shards in order with each batch sorted gives
// the global order). Runs single-threaded; it may touch any shard's
// FIFO state.
func (sh *sharded) killAction() {
	if sh.faults == nil {
		return
	}
	for _, st := range sh.states[:sh.n] {
		if len(st.down) == 0 {
			continue
		}
		slices.Sort(st.down)
		for _, l := range st.down {
			sh.remain -= sh.failQueued(l)
		}
	}
}

// failQueued fails every message that has a sendable request queued on
// the permanently-down dense link l — each would have contended for
// the link this step and the link will never carry it. Messages queued
// on l that are still waiting for upstream flits are left alone; they
// fail on the later step their flits arrive. Returns the number of
// messages newly failed.
func (sh *sharded) failQueued(l int32) int {
	e := sh.e
	e.kill = e.kill[:0]
	for p := e.qhead[l]; p >= 0; p = e.qnext[p] {
		if e.arrived[p]-e.crossed[p] > 0 && !e.dead[e.posMsg[p]] {
			e.kill = append(e.kill, e.posMsg[p])
		}
	}
	n := 0
	for _, mi := range e.kill {
		n += sh.failMessage(mi, e.ext[l], sh.step)
	}
	return n
}

// failMessage marks message mi failed at step (blaming external link
// extLink, or -1 for a timeout), removes its queued requests from
// their FIFOs, returns their credits, and accounts every not-yet-moved
// flit-hop as dropped, to the shard owning its link. Both callers run
// single-threaded between phases. Idempotent: returns 1 only on the
// first kill.
func (sh *sharded) failMessage(mi int32, extLink, step int) int {
	e := sh.e
	if e.dead[mi] {
		return 0
	}
	e.dead[mi] = true
	sh.fr.Outcomes[mi] = Outcome{Step: step, FailedLink: extLink}
	sh.fr.FailedMsgs++
	dropped := 0
	for p := e.off[mi]; p < e.off[mi+1]; p++ {
		d := e.flits[mi] - e.crossed[p]
		dropped += d
		sh.shardOf(e.route[p]).dropped += d
		if e.queued[p] {
			l := e.route[p]
			e.unlink(l, p)
			e.qlen[l]--
			e.queued[p] = false
			if avail := e.arrived[p] - e.crossed[p]; avail > 0 {
				e.credit[l] -= avail
			}
		}
	}
	sh.fr.DroppedFlits += dropped
	if sh.probe != nil {
		if sh.n == 1 {
			sh.probe.FlitsDropped(step, mi, dropped)
			sh.probe.MsgDone(step, mi, false)
		} else {
			sh.killEv = append(sh.killEv, killEvent{msg: mi, dropped: dropped})
		}
	}
	return 1
}

// arrive appends every peer's ring and spill batch destined here to
// this shard's local arrivals, then applies the arrival rules to each
// flit in that order: delivery bookkeeping on the final
// hop, otherwise buffering and credits at the next hop. Every link
// touched (credit, FIFO enqueue) is owned by this shard, because a
// position's enqueue target is its own link.
func (sh *sharded) arrive(k int) {
	e := sh.e
	st := sh.states[k]
	for s2, peer := range sh.states[:sh.n] {
		if s2 == k {
			continue
		}
		r := peer.out[k]
		for {
			p, ok := r.pop()
			if !ok {
				break
			}
			st.arr = append(st.arr, p)
		}
		st.arr = append(st.arr, peer.spill[k]...)
	}
	inline := sh.n == 1
	fr, probe, mode, step := sh.fr, sh.probe, sh.mode, sh.step
	enq := st.enq[:0]
	for _, p := range st.arr {
		mi := e.posMsg[p]
		if fr != nil && e.dead[mi] {
			continue // killed this step: crossing counted, arrival absorbed
		}
		next := p + 1
		if next == e.off[mi+1] {
			done := e.crossed[p] == e.flits[mi]
			if probe != nil {
				if inline {
					probe.FlitDelivered(step, mi)
					if done {
						probe.MsgDone(step, mi, true)
					}
				} else {
					v := uint64(uint32(mi)) << 1
					if done {
						v |= 1
					}
					st.pbArrv = append(st.pbArrv, v)
				}
			}
			if done {
				st.deliveredStep++
				if fr != nil {
					fr.Outcomes[mi] = Outcome{Delivered: true, Step: step, FailedLink: -1}
				}
			}
			continue
		}
		switch mode {
		case CutThrough:
			e.arrived[next]++
			if e.queued[next] {
				e.addShardCredit(st, e.route[next], 1)
			}
		case StoreAndForward:
			e.buffer[next]++
			if e.buffer[next] == e.flits[mi] {
				e.arrived[next] = e.flits[mi]
				if e.queued[next] {
					e.addShardCredit(st, e.route[next], e.flits[mi]-e.crossed[next])
				}
			}
		}
		if !e.queued[next] && e.arrived[next] > 0 {
			enq = append(enq, next)
		}
	}
	// Same-step enqueues in ascending position order: equal to the
	// one-shard global sort restricted to this shard's links.
	slices.Sort(enq)
	for _, p := range enq {
		sh.enqueue(st, p)
	}
	st.enq = enq
	if probe != nil && inline {
		e.probeStepEnd(probe, step, sh.links)
	}
}

// enqueue appends position p to its link's FIFO, updates the owning
// shard st's peak queue metric, lists the link on st's active list on
// a probed run, and activates the link on st's worklist if p brings
// sendable flits.
func (sh *sharded) enqueue(st *shardState, p int32) {
	e := sh.e
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
	if e.qlen[l] > st.maxQ {
		st.maxQ = e.qlen[l]
	}
	if e.listing && !e.listed[l] {
		e.listed[l] = true
		st.active = append(st.active, l)
	}
	if avail := e.arrived[p] - e.crossed[p]; avail > 0 {
		e.addShardCredit(st, l, avail)
	}
}

// stepEndAction is the step's work after the arrival phase: fold
// per-shard delivery counts, flush the buffered probe events of two or
// more shards as one canonical stream, and decide termination: done
// once every message finished, an error past the livelock bound, or
// the graceful-timeout failure sweep at FaultOpts.StepLimit.
func (sh *sharded) stepEndAction() {
	for _, st := range sh.states[:sh.n] {
		d := st.deliveredStep
		st.deliveredStep = 0
		sh.remain -= d
		sh.res.DeliveredMsgs += d
	}
	if sh.probe != nil && sh.n > 1 {
		sh.flushProbe()
	}
	if sh.remain == 0 {
		sh.res.Steps = sh.step
		sh.done = true
		return
	}
	if sh.step >= sh.limit {
		if !sh.graceful {
			sh.err = fmt.Errorf("netsim: no progress after %d steps", sh.limit)
			sh.done = true
			return
		}
		sh.fr.TimedOut = true
		for i := range sh.msgs {
			if !sh.e.dead[i] && !sh.fr.Outcomes[i].Delivered {
				sh.failMessage(int32(i), -1, sh.limit)
			}
		}
		if sh.probe != nil { // timeout events follow the final StepEnd
			for _, ev := range sh.killEv {
				sh.probe.FlitsDropped(sh.limit, ev.msg, ev.dropped)
				sh.probe.MsgDone(sh.limit, ev.msg, false)
			}
			sh.killEv = sh.killEv[:0]
		}
		sh.res.Steps = sh.limit
		sh.done = true
		return
	}
	sh.step++
}

// flushProbe merges the shards' buffered events for the closing step
// into one deterministic stream: moves sorted by (link, message) —
// unique per step since a link moves at most one flit per step — then
// the kill batch in its canonical order, then deliveries sorted by
// message id (a message delivers at most one flit per step), then the
// step-end queue sample over the full link range with the shards'
// active links.
func (sh *sharded) flushProbe() {
	e := sh.e
	step := sh.step
	sh.mvBuf = sh.flushMoves(sh.probe, step, sh.mvBuf)
	for _, ev := range sh.killEv {
		sh.probe.FlitsDropped(step, ev.msg, ev.dropped)
		sh.probe.MsgDone(step, ev.msg, false)
	}
	sh.killEv = sh.killEv[:0]
	ar := sh.arBuf[:0]
	for _, st := range sh.states[:sh.n] {
		ar = append(ar, st.pbArrv...)
		st.pbArrv = st.pbArrv[:0]
	}
	slices.Sort(ar)
	for _, v := range ar {
		mi := int32(v >> 1)
		sh.probe.FlitDelivered(step, mi)
		if v&1 != 0 {
			sh.probe.MsgDone(step, mi, true)
		}
	}
	sh.arBuf = ar
	e.probeStepEnd(sh.probe, step, sh.links)
}
