package netsim

import (
	"fmt"
	"slices"
	"sync"
)

// This file fuses the two scaling layers of the engine: the sharded
// step loop of sharded.go (dense link space partitioned across worker
// goroutines, two barriers per step) driven by the open-loop arrival
// stream and slot-recycling arena of openloop.go. The partition and
// phase structure are identical to the closed-loop sharded engine —
//
//	transfer(k) ∥ …  →  [barrier: kills]  →  arrive(k) ∥ …  →  [barrier: step end]
//
// — with three open-loop extensions, all confined to the
// single-threaded barrier actions:
//
//   - Arrival dispatch: an arrival due at the closing step is injected
//     at the step-end barrier and its base position enqueued on the
//     shard owning its first link. Injected messages carry larger ids
//     than everything already in flight, so appending them after the
//     arrival phase's (message id, hop)-sorted enqueues preserves the
//     single-shard per-link FIFO order exactly.
//   - Global quiescence: when the step-end action observes no live
//     messages on any shard, the last-arriving worker leaps the clock
//     to the next pending arrival step (SkippedSteps accounting as in
//     the single-shard leap clock) and injects everything due there.
//     In the synchronous model an active network moves a flit every
//     step, so global quiescence is exactly the single-shard leap
//     condition.
//   - Slot recycling: the arena stays a single Engine-owned structure,
//     the same one the single-shard path uses (olClaim, olRecycle);
//     slots are claimed (injection) and recycled (delivery, kill,
//     timeout) only inside barrier actions, so the intrusive
//     per-template free stacks need no synchronization and a warm run
//     allocates nothing per message. Slot identity is unobservable —
//     FIFO tie-breaks sort msg<<32 | position keys, deliveries fold in
//     msg<<32 | slot key order, and all reported events are in
//     message-id terms — so a single global arena is bit-identity-safe
//     even though the single-shard engine recycles in a different
//     within-step order.
//
// The Engine itself is borrowed from enginePool for the run, the pool
// behind every other entry point, so a sharded run reuses an arena a
// single-shard run already grew (and vice versa).
//
// Canonical merge order: within a step the barrier flushes probe moves
// sorted by (link, message), then buffered kill events in the
// canonical ascending-link kill order, then deliveries sorted by
// message id; LatencySink observations and PerMessage callbacks fire
// in message-id order. Aggregate results are bit-identical to
// SimulateOpenLoop for every shard count; within-step event *order* is
// canonicalized exactly as in the closed-loop sharded engine
// (single-shard order is worklist-dependent), which the equivalence
// suite checks with order-insensitive stream comparisons.

// olSharded holds the partition, barrier, arrival stream, and
// per-shard states of one open-loop run, and the Engine (template
// numbering and the slot arena) it borrows for that run. Everything
// below the barrier is written only during setup or inside barrier
// actions.
type olSharded struct {
	e      *Engine // lent by the entry point for one run
	bar    stepBarrier
	states []*shardState
	owner  []uint8
	cuts   []int32

	tmpls []*Message
	src   ArrivalSource
	opts  OpenLoopOpts
	olr   *OpenLoopResult

	links     int32
	maxRoute  int
	horizon   int
	graceful  bool
	wantStats bool

	step         int
	lastProgress int
	nextMsg      int32
	lastStep     int // step of the last successful pull, for re-poll checks
	movedPrev    int // Σ st.moved at the previous step end
	pending      Arrival
	havePending  bool
	done         bool
	err          error

	killEv  []killEvent
	mvBuf   []uint64
	arBuf   []uint64
	doneBuf []uint64
}

var olShardedPool = idlePool[olSharded]{new: func() *olSharded { return new(olSharded) }}

// getOLSharded takes a runner from olShardedPool and lends it an
// Engine from enginePool for one run; release returns both.
func getOLSharded() *olSharded {
	sh := olShardedPool.get()
	sh.e = enginePool.get()
	return sh
}

func (sh *olSharded) release() {
	enginePool.put(sh.e)
	sh.e = nil
	olShardedPool.put(sh)
}

// SimulateOpenLoopSharded is SimulateOpenLoop partitioned across
// shards worker goroutines: whole-cube steady-state runs at
// million-link scale. Results, latency sinks, and probe streams carry
// the same information as the single-shard engine for every shard
// count (within-step event order is canonicalized as in
// SimulateShardedProbed); shards <= 1 takes the single-shard path
// untouched, and negative shard counts are an error. Probing is
// opts.Probe, as in SimulateOpenLoop.
func SimulateOpenLoopSharded(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int) (*OpenLoopResult, error) {
	if shards < 0 {
		return nil, fmt.Errorf("netsim: negative shard count %d", shards)
	}
	if shards <= 1 {
		return SimulateOpenLoop(tmpls, src, opts)
	}
	sh := getOLSharded()
	olr, _, err := sh.run(tmpls, src, opts, shards, false)
	sh.release()
	return olr, err
}

// SimulateOpenLoopShardedStats is SimulateOpenLoopSharded plus the
// per-shard accounting (load balance, boundary traffic, and the
// per-shard conservation invariant FlitsMoved + DroppedFlits ==
// InjectedHops over the injected prefix).
func SimulateOpenLoopShardedStats(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int) (*OpenLoopResult, []ShardStat, error) {
	if shards < 0 {
		return nil, nil, fmt.Errorf("netsim: negative shard count %d", shards)
	}
	sh := getOLSharded()
	olr, stats, err := sh.run(tmpls, src, opts, shards, true)
	sh.release()
	return olr, stats, err
}

// run is the shared core of the sharded open-loop entry points.
func (sh *olSharded) run(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int, wantStats bool) (*OpenLoopResult, []ShardStat, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	e := sh.e
	shape, err := e.numberAll(tmpls)
	if err != nil {
		return nil, nil, err
	}
	links := shape.links

	// Fewer than two links cannot be partitioned; fall back to the
	// single-shard path on the borrowed engine.
	if s := int(links); shards > s {
		shards = s
	}
	if shards > 255 { // owner table is uint8
		shards = 255
	}
	if shards <= 1 {
		return sh.runSingle(tmpls, src, opts, wantStats)
	}

	graceful := opts.StepLimit > 0
	horizon := 0
	if opts.Faults != nil {
		horizon = opts.Faults.Horizon()
		if horizon < 0 && !graceful {
			return nil, nil, fmt.Errorf("netsim: unbounded fault schedule requires OpenLoopOpts.StepLimit")
		}
	}

	e.growState(0, 0, int(links))
	if opts.Probe != nil || opts.Faults != nil {
		e.fillExt(tmpls, links)
	}
	if opts.Probe != nil {
		opts.Probe.BeginRun(RunInfo{Messages: -1, Links: int(links), LinkExt: e.ext[:links], Mode: opts.Mode})
	}
	e.olReset(len(tmpls))

	// Partition: contiguous dense-id ranges, exactly as in sharded.go.
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
		st.enqKey = st.enqKey[:0]
		st.down = st.down[:0]
		st.pbMove = st.pbMove[:0]
		st.pbArrv = st.pbArrv[:0]
		st.done = st.done[:0]
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

	sh.tmpls = tmpls
	sh.src = src
	sh.opts = opts
	sh.olr = &OpenLoopResult{}
	sh.links = links
	sh.maxRoute = shape.maxRoute
	sh.horizon = horizon
	sh.graceful = graceful
	sh.wantStats = wantStats
	sh.step = 0
	sh.lastProgress = 0
	sh.nextMsg = 0
	sh.movedPrev = 0
	sh.done = false
	sh.err = nil
	sh.killEv = sh.killEv[:0]
	sh.bar.init(shards)

	sh.lastStep = 0
	sh.pending, sh.havePending = src.Next()
	if sh.havePending {
		if sh.pending.Step < 0 {
			sh.reset()
			return nil, nil, fmt.Errorf("netsim: arrival step %d is negative", sh.pending.Step)
		}
		sh.lastStep = sh.pending.Step
	}

	// Leap to the first arrivals and inject them, then open the first
	// simulated step. Both run the same barrier-action code the workers
	// will use, just before any worker exists.
	sh.advanceIdle()
	if !sh.done {
		sh.beginStep()
	}
	if !sh.done {
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

	stepLimitOpt := opts.StepLimit
	err = sh.err
	olr := sh.olr
	sh.reset()
	if err != nil {
		return nil, nil, err
	}
	for _, st := range sh.states[:shards] {
		olr.FlitsMoved += st.moved
		if st.maxQ > olr.MaxLinkQueue {
			olr.MaxLinkQueue = st.maxQ
		}
	}
	if olr.TimedOut {
		olr.Steps = stepLimitOpt
	} else {
		olr.Steps = sh.step
	}
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
	return olr, stats, nil
}

// reset drops the run's references to caller-owned objects (source,
// sinks, callbacks, probe) so a pooled olSharded retains nothing.
func (sh *olSharded) reset() {
	sh.tmpls = nil
	sh.src = nil
	sh.opts = OpenLoopOpts{}
	sh.olr = nil
}

// runSingle handles runs whose link count (or requested shard count)
// collapses to one shard: delegate to the single-shard open-loop path
// on the borrowed engine.
func (sh *olSharded) runSingle(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, wantStats bool) (*OpenLoopResult, []ShardStat, error) {
	olr, err := sh.e.SimulateOpenLoop(tmpls, src, opts)
	if err != nil {
		return nil, nil, err
	}
	var stats []ShardStat
	if wantStats {
		distinct := make(map[int]struct{})
		for _, m := range tmpls {
			for _, id := range m.Route {
				distinct[id] = struct{}{}
			}
		}
		stats = []ShardStat{{
			Links:        len(distinct),
			FlitsMoved:   olr.FlitsMoved,
			DroppedFlits: olr.DroppedFlits,
			InjectedHops: olr.InjectedHops,
		}}
	}
	return olr, stats, nil
}

// fail records a run-fatal error and stops the step loop.
func (sh *olSharded) fail(err error) {
	sh.err = err
	sh.done = true
}

// advanceIdle handles global quiescence: with nothing in flight on any
// shard, leap the clock to the next arrival step and inject everything
// due there, repeating until traffic is live, the source is exhausted,
// or the next arrival lies beyond a graceful StepLimit. Runs
// single-threaded (setup or a barrier action).
func (sh *olSharded) advanceIdle() {
	for sh.e.olLive == 0 && !sh.done {
		sh.repoll()
		if sh.err != nil {
			return
		}
		if !sh.havePending {
			sh.done = true
			return
		}
		if sh.graceful && sh.pending.Step > sh.opts.StepLimit {
			// The naive model would iterate to the limit and stop; the
			// pending arrivals are never injected.
			sh.olr.TimedOut = true
			sh.done = true
			return
		}
		if sh.pending.Step > sh.step {
			sh.olr.SkippedSteps += sh.pending.Step - sh.step
			sh.step = sh.pending.Step
		}
		sh.injectDue()
		sh.lastProgress = sh.step
	}
}

// beginStep opens the next simulated step: the clock advances by one,
// a graceful StepLimit sweeps everything still in flight, and the
// livelock bound is enforced exactly as in the single-shard loop. Runs
// single-threaded.
func (sh *olSharded) beginStep() {
	sh.step++
	if sh.graceful && sh.step > sh.opts.StepLimit {
		sh.olr.TimedOut = true
		sh.timeoutSweep()
		sh.done = true
		return
	}
	if !sh.graceful {
		slack := stepLimit(sh.e.olInFlight, sh.maxRoute, sh.e.olLive)
		if h := sh.horizon - sh.lastProgress; h > 0 {
			slack += h
		}
		if sh.step-sh.lastProgress > slack {
			sh.fail(fmt.Errorf("netsim: no progress after %d steps", slack))
		}
	}
}

// timeoutSweep fails every live slot at the StepLimit step, in
// message-id order (the canonical merge order; the reference model's
// sweep order). The buffered probe events flush immediately — timeout
// events follow the final StepEnd, as in every other engine path.
func (sh *olSharded) timeoutSweep() {
	e := sh.e
	limit := sh.opts.StepLimit
	for _, k := range e.olLiveKeys() {
		s := int32(uint32(k))
		sh.olFailSlotSharded(s, limit, -1)
		e.olRecycle(s)
	}
	if sh.opts.Probe != nil {
		for _, ev := range sh.killEv {
			sh.opts.Probe.FlitsDropped(limit, ev.msg, ev.dropped)
			sh.opts.Probe.MsgDone(limit, ev.msg, false)
		}
	}
	sh.killEv = sh.killEv[:0]
}

// injectDue injects every pending arrival due at the current step,
// enqueueing each base position on the shard owning its first link.
// An exhausted source is re-polled first when a listener is attached —
// this step's failure callbacks may have scheduled reroutes. Reports
// whether at least one arrival was injected; on error sh.err is set
// and the loop stops.
func (sh *olSharded) injectDue() bool {
	sh.repoll()
	if sh.err != nil {
		return false
	}
	injected := false
	for sh.havePending && sh.pending.Step == sh.step {
		if !sh.injectPending() {
			return injected
		}
		injected = true
		n, ok := sh.src.Next()
		if ok {
			if n.Step < sh.pending.Step {
				sh.fail(fmt.Errorf("netsim: arrival %d: steps must be nondecreasing (step %d after %d)", sh.nextMsg, n.Step, sh.pending.Step))
				return injected
			}
			sh.lastStep = n.Step
		}
		sh.pending, sh.havePending = n, ok
	}
	return injected
}

// repoll re-queries an exhausted source, mirroring the single-shard
// repoll: with a listener attached the source may be a reacting
// session whose failure callbacks schedule reroute arrivals, so
// ok=false is never final. Listener-off runs keep the historical
// one-ahead pull pattern untouched. Runs single-threaded.
func (sh *olSharded) repoll() {
	if sh.havePending || sh.opts.Listener == nil {
		return
	}
	n, ok := sh.src.Next()
	if !ok {
		return
	}
	if n.Step < sh.lastStep {
		sh.fail(fmt.Errorf("netsim: arrival %d: steps must be nondecreasing (step %d after %d)", sh.nextMsg, n.Step, sh.lastStep))
		return
	}
	sh.pending, sh.havePending = n, true
	sh.lastStep = n.Step
}

// injectPending places the pending arrival at the current step:
// empty-route templates deliver on the spot; everything else claims a
// slot (olClaim) and enqueues its base position on the owning shard.
// Mirrors the single-shard inject closure. Runs single-threaded.
func (sh *olSharded) injectPending() bool {
	e := sh.e
	a := sh.pending
	if a.Tmpl < 0 || int(a.Tmpl) >= len(sh.tmpls) {
		sh.fail(fmt.Errorf("netsim: arrival %d names template %d of %d", sh.nextMsg, a.Tmpl, len(sh.tmpls)))
		return false
	}
	msg := sh.nextMsg
	sh.nextMsg++
	if sh.nextMsg < 0 {
		sh.fail(fmt.Errorf("netsim: arrival count overflows int32 message ids"))
		return false
	}
	olr := sh.olr
	olr.Injected++
	t := a.Tmpl
	flits := sh.tmpls[t].Flits
	hops := int(e.off[t+1] - e.off[t])
	olr.InjectedHops += flits * hops
	if sh.wantStats {
		for p := e.off[t]; p < e.off[t+1]; p++ {
			sh.states[sh.owner[e.route[p]]].injected += flits
		}
	}
	step := sh.step
	if hops == 0 {
		olr.DeliveredMsgs++
		if sh.opts.Probe != nil {
			sh.opts.Probe.MsgDone(step, msg, true)
		}
		if sh.opts.Sink != nil && step >= sh.opts.MeasureAfter {
			sh.opts.Sink.Observe(0)
		}
		if sh.opts.PerMessage != nil {
			sh.opts.PerMessage(msg, step, step, true)
		}
		return true
	}
	base := e.olClaim(t, msg, flits, step)
	olr.MaxInFlight = max(olr.MaxInFlight, e.olLive)
	sh.olEnqueueShard(sh.states[sh.owner[e.olRoute[base]]], base)
	return true
}

// worker is the per-shard step loop, structurally identical to the
// closed-loop sharded worker.
func (sh *olSharded) worker(k int) {
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

// transfer runs the single-shard open-loop transfer phase over this
// shard's active links, routing each moved flit either to the local
// arrival batch or across a shard boundary. The final hop of a route
// is always processed locally: delivery bookkeeping belongs to the
// shard owning the last link.
func (sh *olSharded) transfer(k int) {
	e := sh.e
	st := sh.states[k]
	for d := range st.spill { // reclaim last step's drained batches
		st.spill[d] = st.spill[d][:0]
	}
	step := sh.step
	probe := sh.opts.Probe
	faults := sh.opts.Faults
	cur := st.work
	st.work = st.scratch[:0]
	st.arr = st.arr[:0]
	st.down = st.down[:0]
	for _, l := range cur {
		if e.credit[l] <= 0 {
			e.inWork[l] = false
			continue
		}
		if faults != nil {
			if dn, perm := faults.Status(e.ext[l], step); dn {
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
		for p >= 0 && e.olArrived[p]-e.olCrossed[p] <= 0 {
			prev = p
			p = e.olQNext[p]
		}
		if p < 0 { // defensive: credit promised a sendable request
			e.credit[l] = 0
			e.inWork[l] = false
			continue
		}
		s := e.olPosSlot[p]
		e.olCrossed[p]++
		e.credit[l]--
		st.moved++
		if probe != nil {
			st.pbMove = append(st.pbMove, uint64(uint32(l))<<32|uint64(uint32(e.olSlotMsg[s])))
		}
		if e.olCrossed[p] == e.olSlotFl[s] {
			nx := e.olQNext[p]
			if prev < 0 {
				e.qhead[l] = nx
			} else {
				e.olQNext[prev] = nx
			}
			if nx < 0 {
				e.qtail[l] = prev
			}
			e.qlen[l]--
			e.olQueued[p] = false
		}
		if e.credit[l] > 0 {
			st.work = append(st.work, l)
		} else {
			e.inWork[l] = false
		}
		next := p + 1
		if _, end := e.olSpan(s); next == end || sh.owner[e.olRoute[next]] == uint8(k) {
			st.arr = append(st.arr, p)
		} else {
			st.boundary++
			d := sh.owner[e.olRoute[next]]
			if !st.out[d].push(p) {
				st.spill[d] = append(st.spill[d], p)
			}
		}
	}
	st.scratch = cur[:0]
}

// killAction is the first barrier's action: fail the sendable queued
// slots of every permanently-down link found this step, in globally
// ascending dense-link order (shards own ascending ranges, so
// iterating shards in order with each batch sorted gives the global
// order — the same canonical order the single-shard engine uses). Runs
// single-threaded; it may touch any shard's FIFO state.
func (sh *olSharded) killAction() {
	if sh.opts.Faults == nil {
		return
	}
	e := sh.e
	for _, st := range sh.states[:sh.bar.n] {
		if len(st.down) == 0 {
			continue
		}
		slices.Sort(st.down)
		for _, l := range st.down {
			if sh.opts.Listener != nil {
				sh.opts.Listener.LinkDown(sh.step, e.ext[l], true)
			}
			e.kill = e.kill[:0]
			for p := e.qhead[l]; p >= 0; p = e.olQNext[p] {
				s := e.olPosSlot[p]
				if e.olArrived[p]-e.olCrossed[p] > 0 && !e.olSlotDead[s] {
					e.kill = append(e.kill, s)
				}
			}
			blame := e.ext[l]
			for _, s := range e.kill {
				if sh.olFailSlotSharded(s, sh.step, blame) {
					e.olKilled = append(e.olKilled, s)
				}
			}
		}
	}
}

// olFailSlotSharded mirrors olFailSlot with each dropped flit-hop
// additionally attributed to the shard owning its link and the probe
// events buffered for the canonical flush; blame is the killing link's
// external id (-1 for StepLimit sweeps), forwarded to the
// FaultListener. Runs single-threaded (barrier action or timeout
// sweep); idempotent per step via the dead flag.
func (sh *olSharded) olFailSlotSharded(s int32, step, blame int) bool {
	e := sh.e
	if e.olSlotDead[s] {
		return false
	}
	e.olSlotDead[s] = true
	olr := sh.olr
	olr.FailedMsgs++
	flits := e.olSlotFl[s]
	base, end := e.olSpan(s)
	dropped := 0
	for p := base; p < end; p++ {
		d := flits - e.olCrossed[p]
		dropped += d
		sh.states[sh.owner[e.olRoute[p]]].dropped += d
		if e.olQueued[p] {
			l := e.olRoute[p]
			e.olUnlink(l, p)
			e.qlen[l]--
			e.olQueued[p] = false
			if avail := e.olArrived[p] - e.olCrossed[p]; avail > 0 {
				e.credit[l] -= avail
			}
		}
	}
	olr.DroppedFlits += dropped
	msg := e.olSlotMsg[s]
	if sh.opts.Probe != nil {
		sh.killEv = append(sh.killEv, killEvent{msg: msg, dropped: dropped})
	}
	if sh.opts.PerMessage != nil {
		sh.opts.PerMessage(msg, e.olSlotArr[s], step, false)
	}
	if sh.opts.Listener != nil {
		sh.opts.Listener.MsgFailed(step, msg, blame)
	}
	return true
}

// arrive drains this shard's local arrivals, then every peer's ring
// and spill batch destined here, applying the single-shard arrival
// rules over the arena arrays. Same-step enqueues sort by their
// msg<<32 | position keys — (message id, hop) order, since a slot's
// positions ascend with hop — which equals the single-shard key sort
// restricted to this shard's links.
func (sh *olSharded) arrive(k int) {
	st := sh.states[k]
	st.enqKey = st.enqKey[:0]
	for _, p := range st.arr {
		sh.process(st, p)
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
			sh.process(st, p)
		}
		for _, p := range peer.spill[k] {
			sh.process(st, p)
		}
	}
	slices.Sort(st.enqKey)
	for _, k := range st.enqKey {
		sh.olEnqueueShard(st, int32(uint32(k)))
	}
}

// process applies one arrived flit: delivery bookkeeping on the final
// hop (completed slots are buffered as msg<<32 | slot keys for the
// step-end barrier, which folds them in message order), otherwise
// buffering/credits at the next hop, which this shard owns.
func (sh *olSharded) process(st *shardState, p int32) {
	e := sh.e
	s := e.olPosSlot[p]
	if e.olSlotDead[s] {
		return // killed this step: crossing counted, arrival absorbed
	}
	flits := e.olSlotFl[s]
	msg := e.olSlotMsg[s]
	next := p + 1
	if _, end := e.olSpan(s); next == end {
		done := e.olCrossed[p] == flits
		if sh.opts.Probe != nil {
			v := uint64(msg) << 1
			if done {
				v |= 1
			}
			st.pbArrv = append(st.pbArrv, v)
		}
		if done {
			st.done = append(st.done, uint64(msg)<<32|uint64(s))
		}
		return
	}
	switch sh.opts.Mode {
	case CutThrough:
		e.olArrived[next]++
		if e.olQueued[next] {
			sh.olAddCredit(st, e.olRoute[next], 1)
		}
	case StoreAndForward:
		e.olBuffer[next]++
		if e.olBuffer[next] == flits {
			e.olArrived[next] = flits
			if e.olQueued[next] {
				sh.olAddCredit(st, e.olRoute[next], flits-e.olCrossed[next])
			}
		}
	}
	if !e.olQueued[next] && e.olArrived[next] > 0 {
		st.enqKey = append(st.enqKey, uint64(msg)<<32|uint64(next))
	}
}

// olEnqueueShard and olAddCredit mirror olEnqueue/addCredit with the
// worklist and peak-queue metric redirected to the owning shard.
func (sh *olSharded) olEnqueueShard(st *shardState, p int32) {
	e := sh.e
	l := e.olRoute[p]
	if e.qtail[l] < 0 {
		e.qhead[l] = p
	} else {
		e.olQNext[e.qtail[l]] = p
	}
	e.qtail[l] = p
	e.olQNext[p] = -1
	e.olQueued[p] = true
	e.qlen[l]++
	if e.qlen[l] > st.maxQ {
		st.maxQ = e.qlen[l]
	}
	if avail := e.olArrived[p] - e.olCrossed[p]; avail > 0 {
		sh.olAddCredit(st, l, avail)
	}
}

func (sh *olSharded) olAddCredit(st *shardState, l int32, c int) {
	e := sh.e
	if e.credit[l] == 0 && c > 0 && !e.inWork[l] {
		e.inWork[l] = true
		st.work = append(st.work, l)
	}
	e.credit[l] += c
}

// stepEndAction is the second barrier's action: flush the canonical
// merged event streams (moves sorted by (link, message), the kill
// batch in canonical order, deliveries sorted by message id), fold and
// recycle completed slots with LatencySink/PerMessage in message-id
// order, recycle killed slots, inject arrivals due this step, close
// the step with the probe's queue sample, and decide what happens next
// — another step, a quiescent leap, or termination.
func (sh *olSharded) stepEndAction() {
	e := sh.e
	olr := sh.olr
	step := sh.step
	probe := sh.opts.Probe
	movedNow := 0
	for _, st := range sh.states[:sh.bar.n] {
		movedNow += st.moved
	}
	if probe != nil {
		mv := sh.mvBuf[:0]
		for _, st := range sh.states[:sh.bar.n] {
			mv = append(mv, st.pbMove...)
			st.pbMove = st.pbMove[:0]
		}
		slices.Sort(mv)
		for _, v := range mv {
			probe.FlitMoved(step, int32(uint32(v)), int32(v>>32))
		}
		sh.mvBuf = mv
		for _, ev := range sh.killEv {
			probe.FlitsDropped(step, ev.msg, ev.dropped)
			probe.MsgDone(step, ev.msg, false)
		}
		sh.killEv = sh.killEv[:0]
	}
	// Deliveries in message-id order: fold the shards' completed-slot
	// keys, emit FlitDelivered/MsgDone, observe latencies, recycle.
	db := sh.doneBuf[:0]
	for _, st := range sh.states[:sh.bar.n] {
		db = append(db, st.done...)
		st.done = st.done[:0]
	}
	slices.Sort(db)
	if probe != nil {
		ar := sh.arBuf[:0]
		for _, st := range sh.states[:sh.bar.n] {
			ar = append(ar, st.pbArrv...)
			st.pbArrv = st.pbArrv[:0]
		}
		slices.Sort(ar)
		for _, v := range ar {
			mi := int32(v >> 1)
			probe.FlitDelivered(step, mi)
			if v&1 != 0 {
				probe.MsgDone(step, mi, true)
			}
		}
		sh.arBuf = ar
	}
	for _, k := range db {
		s, msg := int32(uint32(k)), int32(k>>32)
		olr.DeliveredMsgs++
		if sh.opts.Sink != nil && e.olSlotArr[s] >= sh.opts.MeasureAfter {
			sh.opts.Sink.Observe(step - e.olSlotArr[s])
		}
		if sh.opts.PerMessage != nil {
			sh.opts.PerMessage(msg, e.olSlotArr[s], step, true)
		}
		e.olRecycle(s)
	}
	sh.doneBuf = db
	// Recycle slots killed this step (their dead flags were visible to
	// the arrival phase; before injections so a same-step arrival can
	// reuse them).
	killed := len(e.olKilled) > 0
	for _, s := range e.olKilled {
		e.olRecycle(s)
	}
	e.olKilled = e.olKilled[:0]
	// Injections due this step enqueue after the arrival phase's
	// (message id, hop)-sorted enqueues; injected ids exceed every
	// in-flight id, so per-link FIFO order matches the single-shard
	// engine, which enqueues them after its sorted keys the same way.
	injected := sh.injectDue()
	if sh.err != nil {
		return
	}
	if probe != nil {
		probe.StepEnd(step, e.qlen[:sh.links])
	}
	if movedNow > sh.movedPrev || killed || injected {
		sh.lastProgress = step
	}
	sh.movedPrev = movedNow
	if e.olLive == 0 {
		sh.advanceIdle()
		if sh.done {
			return
		}
	}
	sh.beginStep()
}
