package netsim

// Probe is the observation interface of the simulator: a per-run
// callback sink for step-level queue samples, flit-level move/drop
// events, and message completions. It exists so experiments can see
// *where* queueing and latency come from (distributions over time)
// instead of only the end-of-run aggregates in Result.
//
// A probe is attached per run: closed-loop runs take it through
// SimulateProbed, FaultOpts.Probe, or the sharded entry points, all
// served by the closed-loop kernel (sharded.go); open-loop runs
// through OpenLoopOpts.Probe; wormhole runs through
// SimulateWormholeProbed. Simulate is the same kernel with no probe
// attached. Every call site is guarded by a nil-check, so a run with
// no probe attached pays only untaken branches, and attaching a probe
// never changes a result (asserted by the equivalence fuzzers). All the bookkeeping a probe needs that a bare
// run does not (for example the dense→external link id table on the
// fault-free path) is built only when a probe is attached.
//
// Probes are called synchronously, one call at a time, from the
// simulation loop on the caller's goroutine, also at two or more
// shards, where the loop merges the shards' buffered events between
// phases. A probe must not retain the slices it is
// handed — they are the engine's live scratch, valid only for the
// duration of the call. Implementations live in internal/obsv
// (Recorder, TraceWriter); netsim depends only on the shape.
type Probe interface {
	// BeginRun is called once before the first step with the run's
	// shape. Empty-route messages complete at step 0 and are reported
	// through MsgDone before the first step.
	BeginRun(info RunInfo)
	// StepEnd is called once per simulation step, after the step's
	// transfers and arrivals have resolved, with the number of
	// messages currently enqueued on each link (indexed by dense link
	// id; RunInfo.LinkExt maps to external ids). The slice must not be
	// retained.
	StepEnd(step int, queueLen []int)
	// FlitMoved is called for every flit crossing: one call per unit
	// of Result.FlitsMoved, with the crossing step, the owning
	// message's index, and the dense id of the link crossed.
	FlitMoved(step int, msg, link int32)
	// FlitDelivered is called when a flit crosses the final link of
	// its route — the per-flit arrival event latency histograms are
	// built from.
	FlitDelivered(step int, msg int32)
	// FlitsDropped is called once per failed message with the total
	// flit-hops the failure dropped (the message's contribution to
	// Result.DroppedFlits).
	FlitsDropped(step int, msg int32, flits int)
	// MsgDone is called exactly once per message: at its delivery
	// step with delivered=true, or at its failure step (fault path
	// only) with delivered=false.
	MsgDone(step int, msg int32, delivered bool)
}

// RunInfo describes one simulation run to a Probe: at every shard
// count, the whole run's messages and links.
type RunInfo struct {
	// Messages is the number of input messages.
	Messages int
	// Links is the number of distinct directed links the routes cross.
	Links int
	// LinkExt maps dense link ids (used by StepEnd and FlitMoved) back
	// to the external ids of Message.Route. Valid only during the run;
	// probes that need it later must copy it.
	LinkExt []int
	// Mode is the switching discipline of buffered runs; wormhole runs
	// set Wormhole instead and leave Mode at its zero value.
	Mode     Mode
	Wormhole bool
}

// SimulateProbed is Simulate with an observation probe attached for
// the duration of the run: the closed-loop kernel at one shard, which
// calls p at each event on the caller's goroutine. Results are
// bit-identical to Simulate.
func SimulateProbed(msgs []*Message, mode Mode, p Probe) (*Result, error) {
	return SimulateShardedProbed(msgs, mode, 1, p)
}

// SimulateWormholeProbed is SimulateWormhole with an observation probe
// attached for the duration of the run.
func SimulateWormholeProbed(msgs []*Message, p Probe) (*WormholeResult, error) {
	e := enginePool.get()
	res, err := e.simulateWormhole(msgs, p)
	enginePool.put(e)
	return res, err
}

// fillExt populates the dense→external link id table by one extra pass
// over the routes. The fault paths always need it (fault queries and
// blame are in external ids); the fault-free paths build it only for
// an attached probe.
func (e *Engine) fillExt(msgs []*Message, links int32) {
	e.ext = grow(e.ext, int(links))
	pos := 0
	for _, m := range msgs {
		for _, id := range m.Route {
			e.ext[e.route[pos]] = int(id)
			pos++
		}
	}
}

// beginProbe emits to p the run-shape and step-0 completion events
// common to the closed-loop kernel and the wormhole model.
func (e *Engine) beginProbe(p Probe, msgs []*Message, links int32, mode Mode, wormhole bool) {
	p.BeginRun(RunInfo{
		Messages: len(msgs),
		Links:    int(links),
		LinkExt:  e.ext[:links],
		Mode:     mode,
		Wormhole: wormhole,
	})
	for i, m := range msgs {
		if len(m.Route) == 0 {
			p.MsgDone(0, int32(i), true)
		}
	}
}
