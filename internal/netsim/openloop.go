package netsim

import (
	"fmt"
	"slices"
)

// This file is the open-loop (steady-state) simulation mode. The
// closed-loop paths (Simulate, SimulateFaults, ...) inject every
// message at step 0 and run to drain; the open-loop path injects
// messages over time from an ArrivalSource and is built so that no
// per-step work is proportional to anything but live traffic:
//
//   - Routes are numbered once as *templates* (the same numberAll pass
//     every engine path uses); an arrival names a template, not a
//     route, so a run injecting millions of messages pays the
//     numbering pass once.
//   - Message state lives in a slot arena recycled through
//     per-template free stacks: a delivered (or killed) message's
//     position range is reset and reused by a later arrival of the same
//     template, so memory is proportional to the peak in-flight window
//     (OpenLoopResult.MaxInFlight), never the injected total. The
//     stacks are intrusive (a head per template, a next link per slot),
//     so neither a message nor a template costs an allocation: a warm
//     engine allocates nothing per run beyond its result, and a cold
//     one only grows the arena arrays.
//   - Same-step FIFO ties are ordered by sorting msg<<32 | position
//     keys as plain integers. A slot's positions ascend with hop, so
//     this is the (message id, hop) order whatever slots recycling has
//     handed out; raw positions would not be.
//   - A leap-step clock: whenever the network drains (no live
//     messages), the clock jumps directly to the next arrival's step
//     instead of iterating empty steps. In the synchronous model an
//     active network moves a flit every step, so the next event time
//     is min(next arrival, step+1) — the jump is exact, and
//     OpenLoopResult.SkippedSteps counts what it saved.
//
// Per-message latencies stream out through a LatencySink (or the
// PerMessage callback) instead of accumulating in result arrays.
//
// Semantics are pinned to the closed-loop engine: an arrival at step t
// joins its first link's FIFO at the end of step t (exactly where step
// t's newly arrived flits enqueue) and can cross its first link at
// step t+1, so a trace whose arrivals all say step 0 reproduces
// Simulate bit-identically. The per-step enqueue tie-break is the
// documented (message id, hop) order, with trace position serving as
// the message id. SimulateOpenLoopReference retains the naive
// per-step, no-recycling model as the golden reference; the fuzzers
// hold the engine to it at every shard count. The step loop (openLoop)
// is one loop at every shard count; openloop_sharded.go holds its
// per-shard transfer and arrival phases.

// Arrival is one open-loop message injection: at the end of Step, a
// message with template Tmpl (an index into the template slice handed
// to SimulateOpenLoop) enters the network. Sources must produce
// arrivals in nondecreasing Step order; message ids are assigned in
// arrival order starting at 0.
type Arrival struct {
	Step int
	Tmpl int32
}

// ArrivalSource streams arrivals. Sources are pulled lazily, one
// arrival ahead of the simulated clock, so a source generating
// millions of arrivals (internal/traffic's Poisson and MMPP
// processes) never needs to materialize them.
//
// When OpenLoopOpts.Listener is non-nil, Next may be called again
// after it has returned ok=false: a listener reacting to a failure can
// schedule reroute arrivals, so exhaustion is re-checked at every
// injection point. Arrivals produced by a re-poll must still respect
// the nondecreasing-step contract relative to everything returned
// before, and may not lie in the past: a re-polled arrival's step must
// be at or after the step the engine re-polls at (the step whose
// failure callbacks just ran), or the run returns an error naming the
// arrival, its step and that step. Listener-off runs never re-poll.
type ArrivalSource interface {
	// Next returns the next arrival, or ok=false when the source is
	// exhausted.
	Next() (Arrival, bool)
}

// Trace is a materialized arrival sequence — the replayable form used
// by the golden-model tests and by benchmarks that time several
// engines on identical input.
type Trace struct {
	Arrivals []Arrival
}

// Source returns a fresh source that replays the trace from the start.
func (t *Trace) Source() ArrivalSource {
	s := traceSource(t.Arrivals)
	return &s
}

type traceSource []Arrival

func (s *traceSource) Next() (Arrival, bool) {
	if len(*s) == 0 {
		return Arrival{}, false
	}
	a := (*s)[0]
	*s = (*s)[1:]
	return a, true
}

// RecordArrivals drains a source into a replayable Trace. max, when
// positive, bounds the recording: a source still producing past max
// arrivals is an error (guarding against unbounded generators).
func RecordArrivals(src ArrivalSource, max int) (*Trace, error) {
	tr := &Trace{}
	for {
		a, ok := src.Next()
		if !ok {
			return tr, nil
		}
		tr.Arrivals = append(tr.Arrivals, a)
		if max > 0 && len(tr.Arrivals) > max {
			return nil, fmt.Errorf("netsim: arrival source exceeded %d arrivals", max)
		}
	}
}

// LatencySink receives one per-message latency (delivery step minus
// arrival step) per delivered message, streamed as deliveries happen.
// *obsv.Histogram satisfies it, so open-loop latencies fold straight
// into fixed-size histogram buckets with no per-message storage.
type LatencySink interface {
	Observe(v int)
}

// OpenLoopOpts configures an open-loop run.
type OpenLoopOpts struct {
	// Mode is the switching discipline (StoreAndForward or CutThrough).
	Mode Mode
	// Faults, when non-nil, injects link faults exactly as in
	// SimulateFaults: transient outages delay, permanent outages fail
	// the messages queued on them. Steps are queried in absolute
	// open-loop time: the open-loop clock is the schedule clock.
	Faults LinkFaults
	// StepLimit, when positive, is a graceful timeout: the run stops
	// after that step, messages still in flight are failed (reported
	// with delivered=false at the limit step), and arrivals after the
	// limit are never injected. When zero, a livelock bound applies as
	// in Simulate and exceeding it is an error; a Faults model with
	// unbounded Horizon then requires an explicit StepLimit.
	StepLimit int
	// MeasureAfter is the warm-up cutoff: only messages that *arrive*
	// at or after this step feed Sink, so steady-state percentiles
	// exclude the transient ramp. PerMessage and the Result counters
	// always see every message.
	MeasureAfter int
	// Sink, when non-nil, receives delivery_step − arrival_step for
	// every delivered message arriving at or after MeasureAfter.
	Sink LatencySink
	// PerMessage, when non-nil, is called once per injected message at
	// its completion: delivery (delivered=true) or failure/timeout
	// (delivered=false, done is the failure step). msg is the arrival
	// index.
	PerMessage func(msg int32, arrival, done int, delivered bool)
	// Probe, when non-nil, receives observation events as in the
	// closed-loop paths, with two open-loop adjustments: RunInfo
	// .Messages is -1 (the total is unknown up front), and StepEnd
	// fires only for simulated steps — steps the leap clock skips
	// (nothing in flight) are never observed. Message ids are arrival
	// indices.
	Probe Probe
	// Listener, when non-nil, receives failure notifications (link
	// deaths and the message ids they doom) in the canonical order
	// documented on FaultListener, and enables source re-polling so a
	// reacting listener can inject reroute arrivals. Nil-checked at
	// every call site: listener-off runs are bit-identical.
	Listener FaultListener
}

// validate rejects option values that would otherwise silently
// misbehave: a negative MeasureAfter admits every message into the
// steady-state window, and a negative StepLimit disables the livelock
// bound without enabling the graceful timeout. Every open-loop entry
// point (engine, reference, sharded) runs this first.
func (o *OpenLoopOpts) validate() error {
	if o.StepLimit < 0 {
		return fmt.Errorf("netsim: OpenLoopOpts.StepLimit is negative (%d)", o.StepLimit)
	}
	if o.MeasureAfter < 0 {
		return fmt.Errorf("netsim: OpenLoopOpts.MeasureAfter is negative (%d)", o.MeasureAfter)
	}
	return nil
}

// OpenLoopResult is the aggregate outcome of an open-loop run. The
// conservation invariant generalizes over the *injected* prefix:
//
//	FlitsMoved + DroppedFlits == InjectedHops
//
// (arrivals never injected because a graceful StepLimit ended the run
// first are not counted in Injected or InjectedHops).
type OpenLoopResult struct {
	Result
	// Injected is the number of arrivals injected.
	Injected int
	// InjectedHops is Σ flits·len(route) over injected messages — the
	// right-hand side of the conservation invariant.
	InjectedHops int
	// SkippedSteps counts steps the leap clock jumped over without
	// simulating (Steps includes them: Steps is model time).
	SkippedSteps int
	// MaxInFlight is the peak number of simultaneously live messages —
	// the slot arena's high-water mark, and the run's memory footprint
	// in message slots.
	MaxInFlight int
	// TimedOut reports the run hit OpenLoopOpts.StepLimit with
	// messages in flight (all failed at that step) or arrivals still
	// pending (never injected).
	TimedOut bool
}

// SimulateOpenLoop runs the open-loop simulation on a pooled Engine:
// arrivals drawn from src instantiate route templates from tmpls and
// run under the same synchronous link model as Simulate. See
// OpenLoopOpts and the file comment for the contract. Like Simulate,
// it is safe for concurrent use.
func SimulateOpenLoop(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts) (*OpenLoopResult, error) {
	e := enginePool.get()
	olr, _, err := e.openLoop(tmpls, src, opts, 1, false)
	enginePool.put(e)
	return olr, err
}

// openLoop is the open-loop step loop behind every open-loop entry
// point at every shard count; shards is clamped to [1, min(links,
// 255)]. The loop keeps the arrival stream, the leap clock, the
// StepLimit sweep, the livelock bound, kills, recycling, injections
// and StepEnd; the transfer and arrival phases run per shard
// (olTransfer, olArrive): shard 0 on the caller's goroutine, shards 1
// and up on workers, with the loop's single-threaded work between the
// phases.
func (e *Engine) openLoop(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int, wantStats bool) (*OpenLoopResult, []ShardStat, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	shape, err := e.numberAll(tmpls)
	if err != nil {
		return nil, nil, err
	}
	links := shape.links
	maxRoute := shape.maxRoute
	shards = max(1, min(shards, int(links), 255)) // owner table is uint8

	graceful := opts.StepLimit > 0
	horizon := 0
	if opts.Faults != nil {
		horizon = opts.Faults.Horizon()
		if horizon < 0 && !graceful {
			return nil, nil, fmt.Errorf("netsim: unbounded fault schedule requires OpenLoopOpts.StepLimit")
		}
	}

	e.growState(0, int(links))
	probe := opts.Probe
	if probe != nil || opts.Faults != nil {
		e.fillExt(tmpls, links)
	}
	if opts.Faults != nil {
		e.markFaults(opts.Faults, links)
	}
	if probe != nil {
		probe.BeginRun(RunInfo{Messages: -1, Links: int(links), LinkExt: e.ext[:links], Mode: opts.Mode})
	}

	e.olReset(len(tmpls))
	pt := &e.part
	pt.split(links, shards)
	e.listActive(probe != nil)
	st0 := pt.states[0]
	defer e.olFinish()
	if shards > 1 {
		e.olOpts = opts
		for k := 1; k < shards; k++ {
			pt.wg.Add(1)
			go e.olWorker(k)
		}
		pt.bar.gather()
	}

	olr := &OpenLoopResult{}
	nextMsg := int32(0)
	lastStep := 0 // step of the last successful pull, for re-poll checks
	pending, havePending := src.Next()
	if havePending {
		if pending.Step < 0 {
			return nil, nil, fmt.Errorf("netsim: arrival step %d is negative", pending.Step)
		}
		lastStep = pending.Step
	}

	// injectDue injects every pending arrival due at step, in trace
	// order, pulling the next after each and enforcing nondecreasing
	// steps (nextMsg is then the offending arrival's index). An
	// empty-route template delivers on the spot (latency 0); any other
	// claims a slot whose base position joins the worklist of the shard
	// owning its first link. The caller checks that the pending arrival
	// is due.
	injectDue := func(step int) error {
		for havePending && pending.Step == step {
			t := pending.Tmpl
			if t < 0 || int(t) >= len(tmpls) {
				return fmt.Errorf("netsim: arrival %d names template %d of %d", nextMsg, t, len(tmpls))
			}
			msg := nextMsg
			nextMsg++
			if nextMsg < 0 {
				return fmt.Errorf("netsim: arrival count overflows int32 message ids")
			}
			olr.Injected++
			flits := tmpls[t].Flits
			hops := int(e.off[t+1] - e.off[t])
			olr.InjectedHops += flits * hops
			if wantStats {
				for p := e.off[t]; p < e.off[t+1]; p++ {
					pt.shardOf(e.route[p]).injected += flits
				}
			}
			if hops == 0 {
				olr.DeliveredMsgs++
				if probe != nil {
					probe.MsgDone(step, msg, true)
				}
				if opts.Sink != nil && step >= opts.MeasureAfter {
					opts.Sink.Observe(0)
				}
				if opts.PerMessage != nil {
					opts.PerMessage(msg, step, step, true)
				}
			} else {
				base := e.olClaim(t, msg, flits, step)
				olr.MaxInFlight = max(olr.MaxInFlight, e.olLive)
				e.olEnqueue(pt.shardOf(e.olRoute[base]), base)
			}
			n, ok := src.Next()
			if ok {
				if n.Step < pending.Step {
					return fmt.Errorf("netsim: arrival %d: steps must be nondecreasing (step %d after %d)", nextMsg, n.Step, pending.Step)
				}
				lastStep = n.Step
			}
			pending, havePending = n, ok
		}
		return nil
	}

	// repoll re-queries an exhausted source at step. With a listener
	// attached the source may be a reacting session that schedules
	// reroute arrivals from failure callbacks, so ok=false is never
	// final; the engine asks again at every injection decision point.
	// An arrival re-polled for a step before step could never be
	// injected, so it is an error. Listener-off runs keep the historical
	// one-ahead pull pattern untouched.
	repoll := func(step int) error {
		if havePending || opts.Listener == nil {
			return nil
		}
		n, ok := src.Next()
		if !ok {
			return nil
		}
		if n.Step < lastStep {
			return fmt.Errorf("netsim: arrival %d: steps must be nondecreasing (step %d after %d)", nextMsg, n.Step, lastStep)
		}
		if n.Step < step {
			return fmt.Errorf("netsim: arrival %d: re-polled at step %d for past step %d", nextMsg, step, n.Step)
		}
		pending, havePending = n, true
		lastStep = n.Step
		return nil
	}

	step := 0
	lastProgress := 0
	movedPrev := 0 // flits moved before the current step
	for {
		if e.olLive == 0 {
			if err := repoll(step); err != nil {
				return nil, nil, err
			}
			if !havePending {
				break
			}
			if graceful && pending.Step > opts.StepLimit {
				// The naive model would iterate to the limit and stop;
				// the pending arrivals are never injected.
				olr.TimedOut = true
				break
			}
			if pending.Step > step {
				olr.SkippedSteps += pending.Step - step
				step = pending.Step
			}
			// Leap landing: inject everything due now. Bases enqueue in
			// trace order, which is (message id, hop=0) order already.
			if err := injectDue(step); err != nil {
				return nil, nil, err
			}
			lastProgress = step
			continue
		}

		step++
		if graceful && step > opts.StepLimit {
			olr.TimedOut = true
			// Sweep in ascending message id order — the canonical
			// failure order shared with the reference model (slot order
			// is arrival-history-dependent). The events follow the final
			// StepEnd.
			for _, k := range e.olLiveKeys() {
				s := int32(uint32(k))
				e.olFailSlot(s, opts.StepLimit, -1, &opts, olr)
				e.olRecycle(s)
			}
			break
		}
		if !graceful {
			slack := stepLimit(e.olInFlight, maxRoute, e.olLive)
			if h := horizon - lastProgress; h > 0 {
				slack += h
			}
			if step-lastProgress > slack {
				return nil, nil, fmt.Errorf("netsim: no progress after %d steps", slack)
			}
		}

		// Transfer phase: shard 0 here, shards 1 and up on their
		// workers; their buffered moves flush sorted by (link, msg).
		if shards > 1 {
			pt.step = step
			pt.bar.release()
		}
		e.olTransfer(0, step, &opts)
		if shards > 1 {
			pt.bar.gather()
			if probe != nil {
				e.olKeys = pt.flushMoves(probe, step, e.olKeys)
			}
		}
		// Kill phase: as in the closed-loop kernel, permanently-down
		// links fail their sendable queued messages after the transfer
		// phase, in ascending dense-link order (shards own ascending
		// ranges). Killed slots stay marked dead through the arrival
		// phase (their flits moved this step must not feed downstream
		// hops) and are recycled at the end of the step.
		killed := false
		if opts.Faults != nil {
			for _, st := range pt.states[:shards] {
				if len(st.down) > 1 {
					slices.Sort(st.down)
				}
				for _, l := range st.down {
					if opts.Listener != nil {
						opts.Listener.LinkDown(step, e.ext[l], true)
					}
					e.olKillQueued(l, step, &opts, olr)
				}
			}
			killed = len(e.olKilled) > 0
		}
		// Arrival phase; at two or more shards the shards' final-hop
		// arrivals then fold in message-id order.
		if shards > 1 {
			pt.bar.release()
		}
		e.olArrive(0, step, &opts, olr)
		if shards > 1 {
			pt.bar.gather()
			e.olFlushDone(step, &opts, olr)
		}
		// Recycle slots killed this step (after the arrival phase so
		// their dead flags were visible to it; before injections so a
		// same-step arrival can reuse them).
		for _, s := range e.olKilled {
			e.olRecycle(s)
		}
		e.olKilled = e.olKilled[:0]
		// Injections due this step enqueue after the arrival phase's
		// requests, in id order: their ids exceed every in-flight id, so
		// this is the (message id, hop) order too. A listener reacting to
		// this step's kills may have scheduled reroutes, so re-check an
		// exhausted source first.
		if err := repoll(step); err != nil {
			return nil, nil, err
		}
		injected := havePending && pending.Step == step
		if injected {
			if err := injectDue(step); err != nil {
				return nil, nil, err
			}
		}
		if probe != nil {
			e.probeStepEnd(probe, step, links)
		}
		moved := st0.moved
		if shards > 1 {
			moved = pt.moved()
		}
		if moved > movedPrev || killed || injected {
			lastProgress = step
		}
		movedPrev = moved
	}
	if olr.TimedOut {
		olr.Steps = opts.StepLimit
	} else {
		olr.Steps = step
	}
	return olr, pt.fold(&olr.Result, wantStats), nil
}

// olFinish ends a run: its workers, if any, stop, and the engine drops
// the copy of the caller's options they read.
func (e *Engine) olFinish() {
	e.part.stop()
	e.olOpts = OpenLoopOpts{}
}

// olReset resets the slot arena for a run over ntmpl templates:
// truncate (capacity survives across runs) and empty every template's
// free stack.
func (e *Engine) olReset(ntmpl int) {
	e.olSlotTmpl = e.olSlotTmpl[:0]
	e.olSlotOff = e.olSlotOff[:0]
	e.olSlotMsg = e.olSlotMsg[:0]
	e.olSlotArr = e.olSlotArr[:0]
	e.olSlotFl = e.olSlotFl[:0]
	e.olSlotDead = e.olSlotDead[:0]
	e.olFreeNext = e.olFreeNext[:0]
	e.olKilled = e.olKilled[:0]
	e.olRoute = e.olRoute[:0]
	e.olPosSlot = e.olPosSlot[:0]
	e.olArrived = e.olArrived[:0]
	e.olCrossed = e.olCrossed[:0]
	e.olBuffer = e.olBuffer[:0]
	e.olQueued = e.olQueued[:0]
	e.olQNext = e.olQNext[:0]
	e.olFreeHead = grow(e.olFreeHead, ntmpl)
	for t := range e.olFreeHead {
		e.olFreeHead[t] = -1
	}
	e.olLive, e.olInFlight = 0, 0
}

// olClaim puts message msg, arriving at step with the given flits, on
// a slot of template t — the top of t's free stack, its per-position
// state reset, or a fresh slot when the stack is empty — loads the
// flits at its first hop and returns the base position to enqueue.
// Popping the top reuses slots in LIFO order.
func (e *Engine) olClaim(t, msg int32, flits, step int) int32 {
	s := e.olFreeHead[t]
	if s >= 0 {
		e.olFreeHead[t] = e.olFreeNext[s]
		base, end := e.olSpan(s)
		for p := base; p < end; p++ {
			e.olArrived[p] = 0
			e.olCrossed[p] = 0
			e.olBuffer[p] = 0
			e.olQueued[p] = false
		}
	} else {
		s = e.olNewSlot(t, flits)
	}
	e.olSlotMsg[s] = msg
	e.olSlotArr[s] = step
	base := e.olSlotOff[s]
	e.olArrived[base] = flits
	e.olLive++
	e.olInFlight += flits
	return base
}

// olRecycle frees slot s — delivered, killed (once the arrival phase
// has seen its dead flag), or swept at a StepLimit — and pushes it on
// its template's free stack.
func (e *Engine) olRecycle(s int32) {
	e.olSlotDead[s] = false
	e.olSlotMsg[s] = -1
	e.olLive--
	e.olInFlight -= e.olSlotFl[s]
	t := e.olSlotTmpl[s]
	e.olFreeNext[s] = e.olFreeHead[t]
	e.olFreeHead[t] = s
}

// olLiveKeys returns every live slot s as a msg<<32 | s key, ascending:
// the StepLimit sweep's canonical message-id order, shared with the
// reference model (slot order is arrival-history-dependent). The slice
// is the engine's olKeys scratch.
func (e *Engine) olLiveKeys() []uint64 {
	keys := e.olKeys[:0]
	for s, msg := range e.olSlotMsg {
		if msg >= 0 {
			keys = append(keys, uint64(msg)<<32|uint64(s))
		}
	}
	slices.Sort(keys)
	e.olKeys = keys
	return keys
}

// olSpan returns slot s's position range [base, end) in the arena.
func (e *Engine) olSpan(s int32) (int32, int32) {
	base := e.olSlotOff[s]
	t := e.olSlotTmpl[s]
	return base, base + (e.off[t+1] - e.off[t])
}

// olNewSlot appends a fresh slot for template t to the arena, copying
// the template's dense route once. Append growth (not grow()) because
// the arena must survive reallocation with contents intact.
func (e *Engine) olNewSlot(t int32, flits int) int32 {
	s := int32(len(e.olSlotTmpl))
	base := int32(len(e.olRoute))
	e.olSlotTmpl = append(e.olSlotTmpl, t)
	e.olSlotOff = append(e.olSlotOff, base)
	e.olSlotMsg = append(e.olSlotMsg, -1)
	e.olSlotArr = append(e.olSlotArr, 0)
	e.olSlotFl = append(e.olSlotFl, flits)
	e.olSlotDead = append(e.olSlotDead, false)
	e.olFreeNext = append(e.olFreeNext, -1)
	e.olRoute = append(e.olRoute, e.route[e.off[t]:e.off[t+1]]...)
	for range e.olRoute[base:] {
		e.olPosSlot = append(e.olPosSlot, s)
		e.olArrived = append(e.olArrived, 0)
		e.olCrossed = append(e.olCrossed, 0)
		e.olBuffer = append(e.olBuffer, 0)
		e.olQueued = append(e.olQueued, false)
		e.olQNext = append(e.olQNext, -1)
	}
	return s
}

// olEnqueue is enqueue over the arena arrays: appends position p to
// its link's FIFO, updates shard st's peak queue metric, lists the link
// on st's active list on a probed run, and activates the link on st's
// worklist if p brings sendable flits. st owns the link.
func (e *Engine) olEnqueue(st *shardState, p int32) {
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
	if e.listing && !e.listed[l] {
		e.listed[l] = true
		st.active = append(st.active, l)
	}
	if avail := e.olArrived[p] - e.olCrossed[p]; avail > 0 {
		e.addShardCredit(st, l, avail)
	}
}

// olKillQueued fails every slot with a sendable request queued on the
// permanently-down dense link l (compare failQueued). A slot may be
// queued on l at two hops (routes can repeat a link); olFailSlot's
// dead check keeps the kill idempotent.
func (e *Engine) olKillQueued(l int32, step int, opts *OpenLoopOpts, olr *OpenLoopResult) {
	e.kill = e.kill[:0]
	for p := e.qhead[l]; p >= 0; p = e.olQNext[p] {
		s := e.olPosSlot[p]
		if e.olArrived[p]-e.olCrossed[p] > 0 && !e.olSlotDead[s] {
			e.kill = append(e.kill, s)
		}
	}
	blame := e.ext[l]
	for _, s := range e.kill {
		if e.olFailSlot(s, step, blame, opts, olr) {
			e.olKilled = append(e.olKilled, s)
		}
	}
}

// olFailSlot marks slot s failed at step: removes its queued requests
// from their FIFOs, returns their credits, accounts every not-yet-moved
// flit-hop as dropped, to the shard owning its link, and reports the
// failure — blame is the external id of the killing link (-1 for
// StepLimit sweeps), forwarded to the FaultListener. Runs
// single-threaded; idempotent per step; the caller recycles the slot
// once the arrival phase has seen the dead flag. Reports whether this
// call did the kill.
func (e *Engine) olFailSlot(s int32, step, blame int, opts *OpenLoopOpts, olr *OpenLoopResult) bool {
	if e.olSlotDead[s] {
		return false
	}
	e.olSlotDead[s] = true
	olr.FailedMsgs++
	flits := e.olSlotFl[s]
	base, end := e.olSpan(s)
	dropped := 0
	for p := base; p < end; p++ {
		l := e.olRoute[p]
		d := flits - e.olCrossed[p]
		dropped += d
		e.part.shardOf(l).dropped += d
		if e.olQueued[p] {
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
	if opts.Probe != nil {
		opts.Probe.FlitsDropped(step, msg, dropped)
		opts.Probe.MsgDone(step, msg, false)
	}
	if opts.PerMessage != nil {
		opts.PerMessage(msg, e.olSlotArr[s], step, false)
	}
	if opts.Listener != nil {
		opts.Listener.MsgFailed(step, msg, blame)
	}
	return true
}

// olDeliver completes slot s's message at step: counted, reported to
// the probe, Sink and PerMessage, and recycled. Recycling is safe at
// once: a message delivering at this step moved no other flit this step
// (all its upstream hops finished on earlier steps), so no other
// arrival or enqueue key of the step can reach s.
func (e *Engine) olDeliver(s int32, step int, opts *OpenLoopOpts, olr *OpenLoopResult) {
	msg, arr := e.olSlotMsg[s], e.olSlotArr[s]
	olr.DeliveredMsgs++
	if opts.Probe != nil {
		opts.Probe.MsgDone(step, msg, true)
	}
	if opts.Sink != nil && arr >= opts.MeasureAfter {
		opts.Sink.Observe(step - arr)
	}
	if opts.PerMessage != nil {
		opts.PerMessage(msg, arr, step, true)
	}
	e.olRecycle(s)
}

// olUnlink removes position p from dense link l's intrusive FIFO (the
// arena twin of unlink).
func (e *Engine) olUnlink(l, p int32) {
	prev := int32(-1)
	q := e.qhead[l]
	for q >= 0 && q != p {
		prev = q
		q = e.olQNext[q]
	}
	if q < 0 { // defensive: position was not queued here
		return
	}
	nx := e.olQNext[p]
	if prev < 0 {
		e.qhead[l] = nx
	} else {
		e.olQNext[prev] = nx
	}
	if nx < 0 {
		e.qtail[l] = prev
	}
}
