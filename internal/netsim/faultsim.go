package netsim

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
	// Probe, when non-nil, receives observation events for this run
	// (see probe.go). Attaching a probe never changes the FaultResult.
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
// It runs the closed-loop kernel (sharded.go) at one shard, inline on
// the caller's goroutine, on a pooled Engine; like Simulate, it is safe
// for concurrent use.
func SimulateFaults(msgs []*Message, mode Mode, opts FaultOpts) (*FaultResult, error) {
	return SimulateFaultsSharded(msgs, mode, opts, 1)
}
