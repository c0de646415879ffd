package netsim

import (
	"fmt"
	"slices"
)

// LinkFaults is the fault-injection interface of the simulator. It is
// satisfied by internal/faults.Schedule and internal/faults.PerStep;
// netsim only depends on the shape, not the package, so the fault
// models stay swappable.
//
// An oracle may also list its fault set with the optional method
//
//	AppendLinks(dst []int) []int
//
// which appends, in any order, the external id of every link Status
// can ever report down; Status must report every unlisted link up at
// every step. The engines then resolve the list once per run and ask
// Status only about listed links (faults.Schedule lists its links).
// Oracles without the method, such as faults.PerStep, are asked about
// every active link at every step, and the reference models ask every
// link whatever the oracle: they are the golden model for the skip.
type LinkFaults interface {
	// Status reports whether the directed link (external id, the same
	// numbering Message.Route uses) is down at the 1-based step, and —
	// when down — whether the outage is permanent (down at every step
	// ≥ step). Permanent outages fail messages; transient ones only
	// delay them.
	Status(link, step int) (down, permanent bool)
	// Horizon returns a step after which no link changes state, or -1
	// for unbounded models (which then require an explicit StepLimit).
	Horizon() int
}

// faultLister is the optional fault-set method of LinkFaults.
type faultLister interface {
	AppendLinks(dst []int) []int
}

// markFaults resolves f's fault set against the run's numbering, once
// per run: mayFail[l] reports whether dense link l can ever be down,
// and the kernels ask Status only about marked links. An oracle that
// cannot list its fault set gets every link marked.
func (e *Engine) markFaults(f LinkFaults, links int32) {
	e.mayFail = grow(e.mayFail, int(links))
	fl, ok := f.(faultLister)
	if !ok {
		for l := range e.mayFail {
			e.mayFail[l] = true
		}
		return
	}
	clear(e.mayFail)
	e.faultIDs = fl.AppendLinks(e.faultIDs[:0])
	for _, id := range e.faultIDs {
		if d, ok := e.denseID(id); ok {
			e.mayFail[d] = true
		}
	}
}

// FaultOpts configures a fault-aware simulation run.
type FaultOpts struct {
	// Faults is the link-fault oracle; nil simulates fault-free.
	Faults LinkFaults
	// StepLimit, when positive, is a per-run timeout: messages not
	// finished by then are marked failed (FailedLink -1) and the run
	// returns with TimedOut set instead of erroring. When zero, the
	// generalized livelock bound stepLimit + Horizon() applies and
	// exceeding it is a simulator bug (an error), exactly as in
	// Simulate; a Faults with unbounded horizon then returns an error
	// up front.
	StepLimit int
	// StepOffset shifts the step passed to Faults.Status, so a caller
	// running consecutive rounds (the retry transport) can keep one
	// schedule evolving across rounds: round r queries steps
	// offset+1, offset+2, ...
	StepOffset int
	// Probe, when non-nil, receives observation events for this run
	// (see probe.go). It takes precedence over a probe attached with
	// Engine.SetProbe. Attaching a probe never changes the FaultResult.
	Probe Probe
}

// Outcome is the per-message verdict of a fault-aware run.
type Outcome struct {
	// Delivered reports whether every flit reached the destination.
	Delivered bool
	// Step is the step the message finished: the delivery step of its
	// last flit (0 for empty routes), or the step it failed.
	Step int
	// FailedLink is the external id of the permanently-down link the
	// message was about to cross when it failed, or -1 when the
	// message was delivered or timed out.
	FailedLink int
}

// FaultResult extends Result with fault accounting. With a nil or
// empty schedule the embedded Result is bit-identical to Simulate's.
type FaultResult struct {
	Result
	// TimedOut reports that the run hit FaultOpts.StepLimit with
	// unfinished messages (all marked failed at that step).
	TimedOut bool
	// Outcomes has one entry per input message.
	Outcomes []Outcome
}

// SimulateFaults runs the synchronous simulation under a link-fault
// schedule. Semantics:
//
//   - A down link carries no flits while down.
//   - A message fails at the first step it has a sendable flit queued
//     on a permanently-down link (it is doomed: the link will never
//     recover). Its remaining flit-hops are dropped and its queued
//     requests leave their FIFOs, so it stops contending; everything
//     it already moved stays counted in FlitsMoved.
//   - A transient outage only delays: queued messages wait and resume
//     when the link recovers, which shows up as latency, not loss.
//   - Faults on links that no route crosses change nothing.
//
// The conservation invariant generalizes to
//
//	FlitsMoved + DroppedFlits == Σ flits·len(route)
//
// (injected flit-hops are either moved or dropped), and
// DeliveredMsgs + FailedMsgs == len(msgs).
//
// Like Simulate, this entry point borrows a pooled Engine and is safe
// for concurrent use.
func SimulateFaults(msgs []*Message, mode Mode, opts FaultOpts) (*FaultResult, error) {
	e := enginePool.get()
	fr, err := e.SimulateFaults(msgs, mode, opts)
	enginePool.put(e)
	return fr, err
}

// SimulateFaults is the Engine-level fault-aware simulate path; see
// the package-level SimulateFaults for the semantics. With a nil
// schedule and zero StepLimit the run is bit-identical to Simulate
// (same arbitration, same Result), guarded by regression and fuzz
// tests.
func (e *Engine) SimulateFaults(msgs []*Message, mode Mode, opts FaultOpts) (*FaultResult, error) {
	shape, err := e.numberAll(msgs)
	if err != nil {
		return nil, err
	}
	links := shape.links
	totalFlits, maxRoute := shape.totalFlits, shape.maxRoute

	limit := opts.StepLimit
	graceful := limit > 0
	if !graceful {
		h := 0
		if opts.Faults != nil {
			h = opts.Faults.Horizon()
		}
		if h < 0 {
			return nil, fmt.Errorf("netsim: unbounded fault schedule requires FaultOpts.StepLimit")
		}
		// The schedule's clock starts at StepOffset (the run queries
		// steps offset+1, offset+2, ...), so fault activity at or
		// before the offset is history: only the remaining horizon can
		// still delay this run. Without the adjustment the livelock
		// bound inherits slack for outages that already ended — loose
		// for late retry rounds, whose offsets grow with every round.
		h -= opts.StepOffset
		if h < 0 {
			h = 0
		}
		limit = stepLimit(totalFlits, maxRoute, len(msgs)) + h
	}

	e.growState(len(msgs), shape.total, int(links))

	// Dense link id → external id, for fault queries and blame. Filled
	// by one extra pass over the routes so the fault-free numbering
	// pass stays untouched.
	e.fillExt(msgs, links)
	if opts.Faults != nil {
		e.markFaults(opts.Faults, links)
	}
	oldProbe := e.probe
	if opts.Probe != nil {
		e.probe = opts.Probe
	}
	if e.probe != nil {
		e.beginProbe(msgs, links, mode, false)
	}
	e.dead = grow(e.dead, len(msgs))
	for i := range msgs {
		e.dead[i] = false
	}

	fr := &FaultResult{Outcomes: make([]Outcome, len(msgs))}
	res := &fr.Result
	e.res = res
	remaining := 0
	for i, m := range msgs {
		e.flits[i] = m.Flits
		fr.Outcomes[i] = Outcome{FailedLink: -1}
		p0, p1 := e.off[i], e.off[i+1]
		if p0 == p1 {
			fr.Outcomes[i].Delivered = true
			continue
		}
		e.arrived[p0] = m.Flits
		remaining++
		e.enqueue(p0)
	}

	step := 0
	for remaining > 0 {
		step++
		if step > limit {
			if !graceful {
				e.res = nil
				e.probe = oldProbe
				return nil, fmt.Errorf("netsim: no progress after %d steps", limit)
			}
			fr.TimedOut = true
			for i := range msgs {
				if !e.dead[i] && !fr.Outcomes[i].Delivered {
					e.failMessage(int32(i), -1, limit, fr)
				}
			}
			break
		}
		cur := e.work
		e.work = e.scratch[:0]
		arr := e.arrivals[:0]
		down := e.down[:0]
		for _, l := range cur {
			if e.credit[l] <= 0 {
				e.inWork[l] = false
				continue
			}
			if opts.Faults != nil && e.mayFail[l] {
				if dn, perm := opts.Faults.Status(e.ext[l], opts.StepOffset+step); dn {
					if !perm {
						// Transient outage: hold the link in the
						// worklist and retry next step.
						e.work = append(e.work, l)
						continue
					}
					// Permanent outage: defer the kill to the end of
					// the transfer phase (see below).
					down = append(down, l)
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
		// Kill phase: permanently-down links collected during the
		// transfer phase fail their sendable queued messages now, in
		// ascending dense-link-id order. Deferring the kills out of
		// the transfer loop makes the step canonical — the worklist
		// order (an artifact of credit-activation history) no longer
		// decides which flits squeeze through on other links before a
		// doomed message dies, or which of two down links gets the
		// blame. The kill set itself is loop-order-invariant: a down
		// link moves nothing, so its queue's sendable set cannot
		// change during the transfer phase. This is also exactly the
		// order the sharded engine's kill barrier replays, which is
		// what makes SimulateFaultsSharded bit-identical to this path.
		if len(down) > 0 {
			slices.Sort(down)
			for _, l := range down {
				remaining -= e.failQueued(l, step, fr)
			}
		}
		e.down = down
		// Arrival phase, identical to Simulate except that flits of
		// messages killed this step are absorbed: their crossings
		// happened (FlitsMoved counts them) but they must not feed
		// downstream hops or deliver.
		enq := e.enq[:0]
		for _, p := range arr {
			mi := e.posMsg[p]
			if e.dead[mi] {
				continue
			}
			next := p + 1
			if next == e.off[mi+1] {
				if e.probe != nil {
					e.probe.FlitDelivered(step, mi)
				}
				if e.crossed[p] == e.flits[mi] {
					remaining--
					res.DeliveredMsgs++
					fr.Outcomes[mi] = Outcome{Delivered: true, Step: step, FailedLink: -1}
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
	if fr.TimedOut {
		res.Steps = limit
	} else {
		res.Steps = step
	}
	res.DeliveredMsgs += countEmptyRoutes(msgs)
	e.res = nil
	e.probe = oldProbe
	return fr, nil
}

// failQueued fails every message that has a sendable request queued on
// the permanently-down dense link l — each would have contended for
// the link this step and the link will never carry it. Messages queued
// on l that are still waiting for upstream flits are left alone; they
// fail on the later step their flits arrive. Returns the number of
// messages newly failed.
func (e *Engine) failQueued(l int32, step int, fr *FaultResult) int {
	e.kill = e.kill[:0]
	for p := e.qhead[l]; p >= 0; p = e.qnext[p] {
		if e.arrived[p]-e.crossed[p] > 0 && !e.dead[e.posMsg[p]] {
			e.kill = append(e.kill, e.posMsg[p])
		}
	}
	n := 0
	for _, mi := range e.kill {
		n += e.failMessage(mi, e.ext[l], step, fr)
	}
	return n
}

// failMessage marks message mi failed at step (blaming external link
// extLink, or -1 for a timeout), removes its queued requests from
// their FIFOs, returns their credits, and accounts every not-yet-moved
// flit-hop as dropped. Idempotent: returns 1 only on the first kill.
func (e *Engine) failMessage(mi int32, extLink, step int, fr *FaultResult) int {
	if e.dead[mi] {
		return 0
	}
	e.dead[mi] = true
	fr.Outcomes[mi] = Outcome{Step: step, FailedLink: extLink}
	fr.FailedMsgs++
	dropped := 0
	for p := e.off[mi]; p < e.off[mi+1]; p++ {
		dropped += e.flits[mi] - e.crossed[p]
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
	fr.DroppedFlits += dropped
	if e.probe != nil {
		e.probe.FlitsDropped(step, mi, dropped)
		e.probe.MsgDone(step, mi, false)
	}
	return 1
}

// unlink removes position p from dense link l's intrusive FIFO by
// walking from the head (queues are short; kills are rare).
func (e *Engine) unlink(l, p int32) {
	prev := int32(-1)
	q := e.qhead[l]
	for q >= 0 && q != p {
		prev = q
		q = e.qnext[q]
	}
	if q < 0 { // defensive: position was not queued here
		return
	}
	nx := e.qnext[p]
	if prev < 0 {
		e.qhead[l] = nx
	} else {
		e.qnext[prev] = nx
	}
	if nx < 0 {
		e.qtail[l] = prev
	}
}
