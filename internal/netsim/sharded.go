package netsim

import (
	"fmt"
	"slices"
	"sync"
)

// This file is the partitioned ("sharded") engine: the dense
// contiguous link-id space of a run is split into per-shard ranges,
// each owned by one worker goroutine that keeps the intrusive FIFOs,
// credit counters, and active-link worklist of the single-shard engine
// for exactly its links. A simulation step becomes
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
// The two barrier actions run single-threaded in whichever worker
// arrives last: the kill action replays permanently-down links in
// globally ascending dense-id order (the same canonical order the
// single-shard engine uses since its kills were deferred out of the
// transfer loop), and the step-end action folds per-shard delivery
// counts, flushes buffered probe events in deterministic order, and
// decides termination. Everything global is written only there, which
// is what makes the sharded engine *bit-identical* to the single-shard
// engine — same Result, same FaultResult, same Probe-visible
// distributions — rather than merely statistically equivalent. The
// equivalence is enforced by TestSimulateShardedEquivalence and
// FuzzSimulateSharded over the fuzz corpus.
//
// Determinism argument, in brief:
//   - FIFO order: same-step enqueues on a link are sorted in ascending
//     position order. All enqueues targeting link l happen in owner(l)'s
//     arrival phase, so a per-shard sort equals the global sort's
//     per-link order.
//   - Transfer decisions: per link, a function of that link's FIFO and
//     credits only; worklist order within a step is immaterial.
//   - Kills: canonical ascending-link order at a barrier, on a kill set
//     that is invariant across the transfer phase (down links move
//     nothing, so their sendable sets cannot change mid-phase).
//   - Probes: per-shard event buffers are merged at the step-end
//     barrier sorted by link id (moves) and message id (deliveries); a
//     link moves at most one flit per step and a message delivers at
//     most one flit per step, so the sort keys are unique.

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
// kill barrier and the step-end probe flush.
type killEvent struct {
	msg     int32
	dropped int
	shard   uint8 // owner of the blamed link, for per-shard probes
}

// shardState is the worker-local state of one shard. The shard owns
// dense links [lo, hi) and is the only goroutine that touches their
// FIFO heads/tails, credits, queue lengths, and worklist outside the
// single-threaded barrier actions.
type shardState struct {
	lo, hi  int32
	work    []int32 // active-link worklist (this shard's links only)
	scratch []int32 // worklist double buffer
	arr     []int32 // local arrivals of the current step
	enq     []int32 // positions to enqueue this step (own links only)
	down    []int32 // permanently-down links found this transfer phase

	// enqKey is the open loop's enq: msg<<32 | position keys, sorted
	// as plain integers into (message id, hop) order.
	enqKey []uint64

	out   []*spscRing // boundary rings to each destination shard
	spill [][]int32   // ring-overflow batches to each destination shard

	// Probe event buffers for the merged-probe path: packed moves
	// (link<<32|msg) and deliveries (msg<<1|completed), flushed sorted
	// at the step-end barrier.
	pbMove []uint64
	pbArrv []uint64

	// done buffers the open-loop slots whose message completed on this
	// shard's links this step, as msg<<32 | slot keys; the step-end
	// barrier sorts and folds them in message-id order (the canonical
	// merge order for LatencySink and PerMessage) and recycles them.
	// Unused by the closed-loop paths.
	done []uint64

	moved         int
	maxQ          int
	deliveredStep int // folded into the run totals at the step barrier
	injected      int
	dropped       int
	boundary      int
}

// stepBarrier is a reusable phase barrier for the shard workers: the
// last arriver runs the phase's action single-threaded under the
// barrier lock, then releases everyone into the next phase. The lock
// hand-off orders every pre-barrier write before every post-barrier
// read, which is the memory-model backbone of the shared flat arrays.
type stepBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func (b *stepBarrier) init(n int) {
	b.n = n
	b.count = 0
	b.gen = 0
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
}

// wait blocks until all n workers have arrived; the last runs action.
func (b *stepBarrier) wait(action func()) {
	b.mu.Lock()
	g := b.gen
	b.count++
	if b.count == b.n {
		action()
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for b.gen == g {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// sharded holds the partition, barrier, and per-shard states of one
// run, and the Engine (numbering pass and flat state arrays) it
// borrows for that run. Run globals below the barrier are written only
// during setup or inside barrier actions.
type sharded struct {
	e      *Engine // lent by the entry point for one run
	bar    stepBarrier
	states []*shardState
	owner  []uint8
	cuts   []int32

	msgs     []*Message
	mode     Mode
	faults   LinkFaults
	offset   int
	res      *Result
	fr       *FaultResult // nil on the fault-free path
	probe    Probe        // merged probe (single event stream)
	probes   []Probe      // per-shard probes (rebased link ids)
	links    int32
	limit    int
	graceful bool
	step     int
	remain   int
	done     bool
	err      error

	killEv []killEvent
	mvBuf  []uint64
	arBuf  []uint64
}

// shardedPool keeps the runners — rings, worklists, owner tables — but
// no Engine: each run borrows one from enginePool, the pool every
// other entry point draws from, so a sharded run after a single-shard
// one finds its buffers already grown.
var shardedPool = idlePool[sharded]{new: func() *sharded { return new(sharded) }}

// getSharded takes a runner from shardedPool and lends it an Engine
// from enginePool for one run; release returns both, first dropping
// the run's references to caller-owned objects so an idle runner
// keeps none of them alive.
func getSharded() *sharded {
	sh := shardedPool.get()
	sh.e = enginePool.get()
	return sh
}

func (sh *sharded) release() {
	enginePool.put(sh.e)
	sh.e, sh.msgs, sh.faults, sh.res, sh.fr = nil, nil, nil, nil, nil
	sh.probe, sh.probes, sh.err = nil, nil, nil
	shardedPool.put(sh)
}

// SimulateSharded is Simulate partitioned across shards worker
// goroutines. Results are bit-identical to Simulate for every shard
// count; shards <= 1 takes the single-shard fast path untouched.
func SimulateSharded(msgs []*Message, mode Mode, shards int) (*Result, error) {
	if shards <= 1 {
		return Simulate(msgs, mode)
	}
	sh := getSharded()
	res, _, _, err := sh.run(msgs, mode, FaultOpts{}, false, nil, shards, false)
	sh.release()
	return res, err
}

// SimulateShardedProbed is SimulateSharded with an observation probe:
// the per-shard event buffers are merged at each step barrier in
// deterministic link-id (moves) and message-id (deliveries) order, so
// p observes one canonical stream equivalent to the single-shard one.
func SimulateShardedProbed(msgs []*Message, mode Mode, shards int, p Probe) (*Result, error) {
	if shards <= 1 {
		return SimulateProbed(msgs, mode, p)
	}
	sh := getSharded()
	res, _, _, err := sh.run(msgs, mode, FaultOpts{Probe: p}, false, nil, shards, false)
	sh.release()
	return res, err
}

// SimulateShardedProbes runs with one independent probe per shard:
// probes[k] observes only shard k's links, with link ids rebased to
// [0, ownedLinks) and RunInfo.LinkExt restricted to the shard's range,
// so each probe (for example an obsv.Recorder) can record without any
// cross-shard synchronization and the recordings can be merged after
// the run (obsv.Recorder.Merge). len(probes) must equal shards; when
// the shard count is clamped (more shards than links), trailing probes
// see no events. Message-scoped events with no link (timeout failures,
// empty-route completions) go to probes[0].
func SimulateShardedProbes(msgs []*Message, mode Mode, shards int, probes []Probe) (*Result, error) {
	if len(probes) != shards {
		return nil, fmt.Errorf("netsim: %d probes for %d shards", len(probes), shards)
	}
	if shards <= 1 {
		return SimulateProbed(msgs, mode, probes[0])
	}
	sh := getSharded()
	res, _, _, err := sh.run(msgs, mode, FaultOpts{}, false, probes, shards, false)
	sh.release()
	return res, err
}

// SimulateFaultsSharded is SimulateFaults partitioned across shards
// workers. Each shard evaluates the fault status of its own links
// (fault schedules are per-step-deterministic, so no coordination is
// needed); the kills themselves run at the step barrier in ascending
// link order, matching the single-shard engine's canonical kill order,
// so the FaultResult is bit-identical for every shard count.
// FaultOpts.Probe is honored as a merged probe.
func SimulateFaultsSharded(msgs []*Message, mode Mode, opts FaultOpts, shards int) (*FaultResult, error) {
	if shards <= 1 {
		return SimulateFaults(msgs, mode, opts)
	}
	sh := getSharded()
	_, fr, _, err := sh.run(msgs, mode, opts, true, nil, shards, false)
	sh.release()
	return fr, err
}

// SimulateShardedStats is SimulateSharded plus the per-shard
// accounting (load balance, boundary traffic, conservation).
func SimulateShardedStats(msgs []*Message, mode Mode, shards int) (*Result, []ShardStat, error) {
	if shards <= 1 {
		shards = 1
	}
	sh := getSharded()
	res, _, stats, err := sh.run(msgs, mode, FaultOpts{}, false, nil, shards, true)
	sh.release()
	return res, stats, err
}

// run is the shared core of every sharded entry point. faultPath
// selects SimulateFaults semantics (Outcomes, kills, graceful
// timeout); opts is ignored otherwise except for opts.Probe.
func (sh *sharded) run(msgs []*Message, mode Mode, opts FaultOpts, faultPath bool, probes []Probe, shards int, wantStats bool) (*Result, *FaultResult, []ShardStat, error) {
	e := sh.e
	shape, err := e.numberAll(msgs)
	if err != nil {
		return nil, nil, nil, err
	}
	links := shape.links

	// Fewer than two links cannot be partitioned; fall back to the
	// single-shard paths on the borrowed engine (numberAll runs
	// again in there — trivial at this size).
	if s := int(links); shards > s {
		shards = s
	}
	if shards > 255 { // owner table is uint8
		shards = 255
	}
	if shards <= 1 {
		return sh.runSingle(msgs, mode, opts, faultPath, probes, wantStats)
	}

	// Step limit: identical derivation to the single-shard paths.
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
		h -= opts.StepOffset
		if h < 0 {
			h = 0
		}
		limit = stepLimit(shape.totalFlits, shape.maxRoute, len(msgs)) + h
	}

	e.growState(len(msgs), shape.total, int(links))

	// Partition: contiguous dense-id ranges of near-equal size. Dense
	// ids are assigned in route order, so ranges inherit whatever
	// locality the route construction has.
	sh.cuts = grow(sh.cuts, shards+1)
	for s := 0; s <= shards; s++ {
		sh.cuts[s] = int32(int64(links) * int64(s) / int64(shards))
	}
	sh.owner = grow(sh.owner, int(links))
	for s := 0; s < shards; s++ {
		for l := sh.cuts[s]; l < sh.cuts[s+1]; l++ {
			sh.owner[l] = uint8(s)
		}
	}
	for len(sh.states) < shards {
		sh.states = append(sh.states, &shardState{})
	}
	for k := 0; k < shards; k++ {
		st := sh.states[k]
		st.lo, st.hi = sh.cuts[k], sh.cuts[k+1]
		st.work = st.work[:0]
		st.scratch = st.scratch[:0]
		st.arr = st.arr[:0]
		st.enq = st.enq[:0]
		st.down = st.down[:0]
		st.pbMove = st.pbMove[:0]
		st.pbArrv = st.pbArrv[:0]
		st.moved, st.maxQ, st.deliveredStep = 0, 0, 0
		st.injected, st.dropped, st.boundary = 0, 0, 0
		for len(st.out) < shards {
			st.out = append(st.out, newSPSCRing())
			st.spill = append(st.spill, nil)
		}
		for d := 0; d < shards; d++ {
			st.out[d].head.Store(0)
			st.out[d].tail.Store(0)
			st.spill[d] = st.spill[d][:0]
		}
	}

	sh.msgs = msgs
	sh.mode = mode
	sh.faults = nil
	sh.offset = opts.StepOffset
	sh.probe = opts.Probe
	sh.probes = probes
	sh.links = links
	sh.limit = limit
	sh.graceful = graceful
	sh.step = 1
	sh.done = false
	sh.err = nil
	sh.killEv = sh.killEv[:0]
	sh.bar.init(shards)

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

	if faultPath || sh.probe != nil || sh.probes != nil {
		e.fillExt(msgs, links)
	}
	if sh.faults != nil {
		e.markFaults(sh.faults, links)
	}
	if sh.probe != nil {
		sh.probe.BeginRun(RunInfo{
			Messages: len(msgs), Links: int(links), LinkExt: e.ext[:links], Mode: mode,
		})
	}
	if sh.probes != nil {
		for k := 0; k < shards; k++ {
			st := sh.states[k]
			sh.probes[k].BeginRun(RunInfo{
				Messages: len(msgs), Links: int(st.hi - st.lo),
				LinkExt: e.ext[st.lo:st.hi], Mode: mode,
			})
		}
		for k := shards; k < len(probes); k++ { // clamped-away shards
			probes[k].BeginRun(RunInfo{Messages: len(msgs), Mode: mode})
		}
	}

	// Injection: identical to the single-shard paths, with each head
	// position enqueued on its owning shard's worklist.
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
			if sh.probe != nil {
				sh.probe.MsgDone(0, int32(i), true)
			} else if sh.probes != nil {
				sh.probes[0].MsgDone(0, int32(i), true)
			}
			continue
		}
		e.arrived[p0] = m.Flits
		sh.remain++
		sh.enqueue(sh.states[sh.owner[e.route[p0]]], p0)
	}
	if wantStats {
		for p := 0; p < shape.total; p++ {
			st := sh.states[sh.owner[e.route[p]]]
			st.injected += e.flits[e.posMsg[p]]
		}
	}

	if sh.remain > 0 {
		var wg sync.WaitGroup
		for k := 1; k < shards; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				sh.worker(k)
			}(k)
		}
		sh.worker(0)
		wg.Wait()
	}
	sh.msgs = nil
	if sh.err != nil {
		return nil, nil, nil, sh.err
	}

	res := sh.res
	for _, st := range sh.states[:shards] {
		res.FlitsMoved += st.moved
		if st.maxQ > res.MaxLinkQueue {
			res.MaxLinkQueue = st.maxQ
		}
	}
	res.DeliveredMsgs += countEmptyRoutes(msgs)
	var stats []ShardStat
	if wantStats {
		stats = make([]ShardStat, shards)
		for k, st := range sh.states[:shards] {
			stats[k] = ShardStat{
				Links:        int(st.hi - st.lo),
				FlitsMoved:   st.moved,
				DroppedFlits: st.dropped,
				InjectedHops: st.injected,
				BoundaryOut:  st.boundary,
			}
		}
	}
	return res, sh.fr, stats, nil
}

// runSingle handles runs whose link count (or requested shard count)
// collapses to one shard: delegate to the classic engine paths.
func (sh *sharded) runSingle(msgs []*Message, mode Mode, opts FaultOpts, faultPath bool, probes []Probe, wantStats bool) (*Result, *FaultResult, []ShardStat, error) {
	e := sh.e
	p := opts.Probe
	if p == nil && len(probes) > 0 {
		p = probes[0]
	}
	var res *Result
	var fr *FaultResult
	var err error
	if faultPath {
		opts.Probe = p
		fr, err = e.SimulateFaults(msgs, mode, opts)
		if fr != nil {
			res = &fr.Result
		}
	} else {
		e.probe = p
		res, err = e.Simulate(msgs, mode)
		e.probe = nil
	}
	if err != nil {
		return nil, nil, nil, err
	}
	for k := 1; k < len(probes); k++ {
		probes[k].BeginRun(RunInfo{Messages: len(msgs), Mode: mode})
	}
	var stats []ShardStat
	if wantStats {
		injected := 0
		distinct := make(map[int]struct{})
		for _, m := range msgs {
			injected += m.Flits * len(m.Route)
			for _, id := range m.Route {
				distinct[id] = struct{}{}
			}
		}
		dropped := 0
		if fr != nil {
			dropped = fr.DroppedFlits
		}
		stats = []ShardStat{{
			Links:        len(distinct),
			FlitsMoved:   res.FlitsMoved,
			DroppedFlits: dropped,
			InjectedHops: injected,
		}}
	}
	return res, fr, stats, nil
}

// worker is the per-shard step loop. All workers run it in lockstep:
// the two barriers per step separate the transfer phase (producers of
// boundary flits) from the arrival phase (consumers), with kills and
// termination decided single-threaded in the barrier actions.
func (sh *sharded) worker(k int) {
	for {
		sh.transfer(k)
		sh.bar.wait(sh.killAction)
		sh.arrive(k)
		sh.bar.wait(sh.stepEndAction)
		if sh.done {
			return
		}
	}
}

// transfer runs the single-shard transfer phase over this shard's
// active links, routing each moved flit either to the local arrival
// batch or across a shard boundary.
func (sh *sharded) transfer(k int) {
	e := sh.e
	st := sh.states[k]
	for d := range st.spill { // reclaim last step's drained batches
		st.spill[d] = st.spill[d][:0]
	}
	step := sh.step
	cur := st.work
	st.work = st.scratch[:0]
	st.arr = st.arr[:0]
	st.down = st.down[:0]
	for _, l := range cur {
		if e.credit[l] <= 0 {
			e.inWork[l] = false
			continue
		}
		if sh.faults != nil && e.mayFail[l] {
			if dn, perm := sh.faults.Status(e.ext[l], sh.offset+step); dn {
				if !perm {
					st.work = append(st.work, l)
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
		if sh.probe != nil {
			st.pbMove = append(st.pbMove, uint64(uint32(l))<<32|uint64(uint32(e.posMsg[p])))
		} else if sh.probes != nil {
			sh.probes[k].FlitMoved(step, e.posMsg[p], l-st.lo)
		}
		mi := e.posMsg[p]
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
			st.work = append(st.work, l)
		} else {
			e.inWork[l] = false
		}
		next := p + 1
		if next == e.off[mi+1] || sh.owner[e.route[next]] == uint8(k) {
			st.arr = append(st.arr, p)
		} else {
			st.boundary++
			d := sh.owner[e.route[next]]
			if !st.out[d].push(p) {
				st.spill[d] = append(st.spill[d], p)
			}
		}
	}
	st.scratch = cur[:0]
}

// killAction is the first barrier's action: fail the sendable queued
// messages of every permanently-down link found this step, in
// globally ascending dense-link order (shards own ascending ranges, so
// iterating shards in order with each batch sorted gives the global
// order). Runs single-threaded; it may touch any shard's FIFO state.
func (sh *sharded) killAction() {
	if sh.faults == nil {
		return
	}
	for _, st := range sh.states[:sh.bar.n] {
		if len(st.down) == 0 {
			continue
		}
		slices.Sort(st.down)
		for _, l := range st.down {
			sh.remain -= sh.failQueued(l)
		}
	}
}

// failQueued mirrors Engine.failQueued for the sharded kill phase.
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
		n += sh.failMessage(mi, e.ext[l], sh.step, sh.owner[l])
	}
	return n
}

// failMessage mirrors Engine.failMessage, additionally attributing
// each dropped flit-hop to the shard owning its link and routing the
// probe events (buffered for a merged probe, direct for per-shard
// probes — both callers run single-threaded in a barrier action).
func (sh *sharded) failMessage(mi int32, extLink, step int, shard uint8) int {
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
		sh.states[sh.owner[e.route[p]]].dropped += d
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
		sh.killEv = append(sh.killEv, killEvent{msg: mi, dropped: dropped, shard: shard})
	} else if sh.probes != nil {
		sh.probes[shard].FlitsDropped(step, mi, dropped)
		sh.probes[shard].MsgDone(step, mi, false)
	}
	return 1
}

// arrive drains this shard's local arrivals, then every peer's ring
// and spill batch destined here, applying the single-shard arrival
// rules. Every link touched (credit, FIFO enqueue) is owned by this
// shard, because a position's enqueue target is its own link.
func (sh *sharded) arrive(k int) {
	e := sh.e
	st := sh.states[k]
	st.enq = st.enq[:0]
	for _, p := range st.arr {
		sh.process(k, st, p)
	}
	for s2, peer := range sh.states[:sh.bar.n] {
		if s2 == k {
			continue
		}
		r := peer.out[k]
		for {
			p, ok := r.pop()
			if !ok {
				break
			}
			sh.process(k, st, p)
		}
		for _, p := range peer.spill[k] {
			sh.process(k, st, p)
		}
	}
	// Same-step enqueues in ascending position order: equal to the
	// single-shard global sort restricted to this shard's links.
	slices.Sort(st.enq)
	for _, p := range st.enq {
		sh.enqueue(st, p)
	}
	if sh.probes != nil {
		sh.probes[k].StepEnd(sh.step, e.qlen[st.lo:st.hi])
	}
}

// process applies one arrived flit: delivery bookkeeping on the final
// hop, otherwise buffering/credits at the next hop, which this shard
// owns.
func (sh *sharded) process(k int, st *shardState, p int32) {
	e := sh.e
	mi := e.posMsg[p]
	if sh.fr != nil && e.dead[mi] {
		return // killed this step: crossing counted, arrival absorbed
	}
	next := p + 1
	if next == e.off[mi+1] {
		done := e.crossed[p] == e.flits[mi]
		if sh.probe != nil {
			v := uint64(uint32(mi)) << 1
			if done {
				v |= 1
			}
			st.pbArrv = append(st.pbArrv, v)
		} else if sh.probes != nil {
			sh.probes[k].FlitDelivered(sh.step, mi)
			if done {
				sh.probes[k].MsgDone(sh.step, mi, true)
			}
		}
		if done {
			st.deliveredStep++
			if sh.fr != nil {
				sh.fr.Outcomes[mi] = Outcome{Delivered: true, Step: sh.step, FailedLink: -1}
			}
		}
		return
	}
	switch sh.mode {
	case CutThrough:
		e.arrived[next]++
		if e.queued[next] {
			sh.addCredit(st, e.route[next], 1)
		}
	case StoreAndForward:
		e.buffer[next]++
		if e.buffer[next] == e.flits[mi] {
			e.arrived[next] = e.flits[mi]
			if e.queued[next] {
				sh.addCredit(st, e.route[next], e.flits[mi]-e.crossed[next])
			}
		}
	}
	if !e.queued[next] && e.arrived[next] > 0 {
		st.enq = append(st.enq, next)
	}
}

// enqueue and addCredit mirror the Engine methods with the worklist
// and peak-queue metric redirected to the owning shard.
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
	if avail := e.arrived[p] - e.crossed[p]; avail > 0 {
		sh.addCredit(st, l, avail)
	}
}

func (sh *sharded) addCredit(st *shardState, l int32, c int) {
	e := sh.e
	if e.credit[l] == 0 && c > 0 && !e.inWork[l] {
		e.inWork[l] = true
		st.work = append(st.work, l)
	}
	e.credit[l] += c
}

// stepEndAction is the second barrier's action: fold per-shard
// delivery counts, flush the merged probe's canonical event stream,
// and decide termination, mirroring the single-shard loop exactly
// (including the graceful-timeout failure sweep and the livelock
// error).
func (sh *sharded) stepEndAction() {
	for _, st := range sh.states[:sh.bar.n] {
		d := st.deliveredStep
		st.deliveredStep = 0
		sh.remain -= d
		sh.res.DeliveredMsgs += d
	}
	if sh.probe != nil {
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
				sh.failMessage(int32(i), -1, sh.limit, 0)
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
// step-end queue sample over the full link range.
func (sh *sharded) flushProbe() {
	e := sh.e
	step := sh.step
	mv := sh.mvBuf[:0]
	for _, st := range sh.states[:sh.bar.n] {
		mv = append(mv, st.pbMove...)
		st.pbMove = st.pbMove[:0]
	}
	slices.Sort(mv)
	for _, v := range mv {
		sh.probe.FlitMoved(step, int32(uint32(v)), int32(v>>32))
	}
	sh.mvBuf = mv
	for _, ev := range sh.killEv {
		sh.probe.FlitsDropped(step, ev.msg, ev.dropped)
		sh.probe.MsgDone(step, ev.msg, false)
	}
	sh.killEv = sh.killEv[:0]
	ar := sh.arBuf[:0]
	for _, st := range sh.states[:sh.bar.n] {
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
	sh.probe.StepEnd(step, e.qlen[:sh.links])
}
