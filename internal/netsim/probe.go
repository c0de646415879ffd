package netsim

import "slices"

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
// never changes a result (asserted by the equivalence fuzzers). All
// the bookkeeping a probe needs that a bare run does not is built only
// when a probe is attached: the dense→external link id table on the
// fault-free path, and the active-link lists StepEnd receives, which
// the buffered loops keep at their enqueue sites (an unprobed run pays
// one flag read per enqueue for them).
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
	// id; RunInfo.LinkExt maps to external ids) and the step's active
	// links: a list of dense link ids holding every link whose queue
	// is non-empty at the step's end or that moved a flit during the
	// step. Each link appears in active at most once and other links
	// may appear too (the wormhole model lists every link); the order
	// is deterministic for a run and shard count but otherwise
	// unspecified. A probe can therefore treat every link missing from
	// active as idle — an empty queue and no move — and pay per active
	// link instead of per link. Neither slice may be retained.
	StepEnd(step int, queueLen []int, active []int32)
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

// listActive readies the active-link lists of a buffered run after
// its split: on a probed run (on) every link's listed flag is cleared
// and each shard's list emptied and grown once to the shard's link
// count; an unprobed run only turns listing off.
func (e *Engine) listActive(on bool) {
	e.listing = on
	if !on {
		return
	}
	pt := &e.part
	e.listed = grow(e.listed, int(pt.cuts[pt.n]))
	clear(e.listed)
	for _, st := range pt.states[:pt.n] {
		st.active = slices.Grow(st.active[:0], int(st.hi-st.lo))
	}
}

// probeStepEnd closes a probed buffered step: it hands probe the queue
// vector and the shards' active lists (shard 0's own list at one
// shard, else merged into e.active), then drops from each list the
// links whose queue is empty and clears their flags. A link moves a
// flit only if it was non-empty at the previous step's end, so a list
// handed over before the drop holds every link that moved this step
// and every link that is non-empty now. When more than an eighth of a
// shard's links are listed, one sequential pass over the shard's range
// relists its non-empty links in ascending order: the same set for
// less than the list's scattered reads cost. Runs single-threaded.
func (e *Engine) probeStepEnd(probe Probe, step int, links int32) {
	pt := &e.part
	active := pt.states[0].active
	if pt.n > 1 {
		active = e.active[:0]
		for _, st := range pt.states[:pt.n] {
			active = append(active, st.active...)
		}
		e.active = active
	}
	probe.StepEnd(step, e.qlen[:links], active)
	for _, st := range pt.states[:pt.n] {
		keep := st.active[:0]
		if 8*len(st.active) > int(st.hi-st.lo) {
			for l := st.lo; l < st.hi; l++ {
				on := e.qlen[l] > 0
				e.listed[l] = on
				if on {
					keep = append(keep, l)
				}
			}
		} else {
			for _, l := range st.active {
				if e.qlen[l] > 0 {
					keep = append(keep, l)
				} else {
					e.listed[l] = false
				}
			}
		}
		st.active = keep
	}
}
