package netsim

import "slices"

// This file holds the open-loop step loop's (Engine.openLoop) arrival
// phase, its workers and its sharded entry points; its transfer phase
// is the kernel's transfer (sharded.go), run on the slot arena through
// the Engine's views. The loop is one loop at every shard count; the
// dense link space is split into contiguous per-shard ranges exactly
// as in the closed-loop kernel (partition), and a simulated step is
//
//	transfer(k) ∥ …  →  [moves, kills]  →  arrive(k) ∥ …  →  [deliveries, recycling, injections, StepEnd]
//
// where the bracketed work runs single-threaded in the loop itself, on
// the caller's goroutine, which also runs shard 0's phases; shards 1
// and up run theirs on worker goroutines (olWorker) that wait at the
// step barrier in between. The arrival stream, the leap clock, the
// StepLimit sweep, the livelock bound and the slot arena (olClaim,
// olRecycle) are therefore touched only by the loop, so the intrusive
// per-template free stacks need no synchronization and a warm run
// allocates nothing per message.
//
// One shard is the plain loop: no owner table, no owner lookup, no
// worker, no buffered event — the probe, Sink and PerMessage are
// called at each event, deliveries recycle inside arrive. At two or
// more shards:
//
//   - A moved flit whose next hop another shard owns goes into that
//     pair's SPSC ring (or spill) and is appended to the owner's
//     arrivals at the start of its arrival phase. A route's final hop
//     is always handled by the shard owning its last link.
//   - Injections go onto the worklist of the shard owning the
//     template's first link. Injected messages carry larger ids than
//     everything in flight, so appending them after the arrival
//     phase's (message id, hop)-sorted enqueues keeps the one-shard
//     per-link FIFO order exactly.
//   - Probe moves and final-hop arrivals are buffered per shard; the
//     loop merges them in the canonical order: moves by (link, msg),
//     then kills in ascending dense-link order with their events
//     inline, then deliveries by message id (FlitDelivered, and for a
//     completed message MsgDone, Sink, PerMessage and recycling), then
//     StepEnd; a StepLimit sweep follows the final StepEnd in message
//     id order. The one-shard stream differs only in the order within
//     each step's runs of moves and of deliveries, which follow the
//     worklist there.
//
// Slot identity is unobservable — FIFO tie-breaks sort msg<<32 |
// position keys and every reported event is in message-id terms — so
// results, callbacks and probe streams are identical at every shard
// count up to that within-run order.

// SimulateOpenLoopSharded is SimulateOpenLoop partitioned across
// shards goroutines: whole-cube steady-state runs at million-link
// scale. Results, latency sinks, PerMessage and FaultListener
// callbacks are identical to SimulateOpenLoop for every shard count,
// and so is the probe stream up to the canonical order within a step's
// moves and deliveries (see the file comment); shards 0 and 1 are
// SimulateOpenLoop's run, and negative shard counts are an error.
// Probing is opts.Probe, as in SimulateOpenLoop.
func SimulateOpenLoopSharded(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int) (*OpenLoopResult, error) {
	olr, _, err := simulateOpenLoopSharded(tmpls, src, opts, shards, false)
	return olr, err
}

// SimulateOpenLoopShardedStats is SimulateOpenLoopSharded plus the
// per-shard accounting (load balance, boundary traffic, and the
// per-shard conservation invariant FlitsMoved + DroppedFlits ==
// InjectedHops over the injected prefix).
func SimulateOpenLoopShardedStats(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int) (*OpenLoopResult, []ShardStat, error) {
	return simulateOpenLoopSharded(tmpls, src, opts, shards, true)
}

func simulateOpenLoopSharded(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts, shards int, wantStats bool) (*OpenLoopResult, []ShardStat, error) {
	if shards < 0 {
		return nil, nil, negativeShards(shards)
	}
	e := enginePool.get()
	olr, stats, err := e.openLoop(tmpls, src, opts, shards, wantStats)
	enginePool.put(e)
	return olr, stats, err
}

// olWorker runs shard k's phases of a run at two or more shards, in
// lockstep with the loop: each release lets it run one phase, transfer
// and arrive in turn, on the step and options the loop published.
func (e *Engine) olWorker(k int) {
	pt := &e.part
	defer pt.wg.Done()
	for {
		pt.bar.wait()
		if pt.done {
			return
		}
		e.transfer(k, pt.step, e.olOpts.Faults, e.olOpts.Probe)
		pt.bar.wait()
		e.olArrive(k, pt.step, &e.olOpts, nil)
	}
}

// olDoneBit flags a completed message in a buffered final-hop key
// (msg<<32 | slot): bit 31 of the slot word, which a slot index never
// reaches.
const olDoneBit = 1 << 31

// olArrive is the arrival phase of shard k: after the peers' boundary
// flits are gathered, each arrived flit is skipped if its message was
// killed this step, a delivery on the final hop, and otherwise lands at
// the next hop, a link this shard owns. New requests are collected as
// msg<<32 | position keys: a slot's positions ascend with hop, so
// ascending keys are the documented (message id, hop) FIFO tie-break
// whatever slots recycling has handed out. At one shard a delivery is
// reported and its slot recycled at once (olDeliver, into olr); at two
// or more it is buffered in st.done for the loop's merge, flagged
// olDoneBit when the message completed, and olr is unused.
func (e *Engine) olArrive(k, step int, opts *OpenLoopOpts, olr *OpenLoopResult) {
	pt := &e.part
	st := pt.states[k]
	inline := pt.n == 1
	if !inline {
		pt.gather(k)
	}
	probe, mode := opts.Probe, opts.Mode
	keys := st.enqKey[:0]
	for _, p := range st.arr {
		s := e.olPosSlot[p]
		if e.dead[s] {
			continue // killed this step: crossing counted, arrival absorbed
		}
		msg := e.olSlotMsg[s]
		next := p + 1
		if next == e.olSlotEnd[s] {
			done := e.crossed[p] == e.flits[s]
			if inline {
				if probe != nil {
					probe.FlitDelivered(step, msg)
				}
				if done {
					e.olDeliver(s, step, opts, olr)
				}
			} else if done {
				st.done = append(st.done, uint64(msg)<<32|olDoneBit|uint64(s))
			} else if probe != nil {
				st.done = append(st.done, uint64(msg)<<32|uint64(s))
			}
			continue
		}
		c := e.land(next, e.flits[s], mode)
		if e.queued[next] {
			e.addShardCredit(st, e.olRoute[next], c)
		} else if e.arrived[next] > 0 {
			keys = append(keys, uint64(msg)<<32|uint64(next))
		}
	}
	if len(keys) > 1 {
		slices.Sort(keys)
	}
	for _, key := range keys {
		e.enqueue(st, int32(uint32(key)))
	}
	st.enqKey = keys
}

// olFlushDone folds the shards' buffered final-hop arrivals of a step
// at two or more shards in message-id order — a message delivers at
// most one flit per step, so the keys are unique: FlitDelivered when
// probed, then, for a key flagged olDoneBit, olDeliver. Runs
// single-threaded.
func (e *Engine) olFlushDone(step int, opts *OpenLoopOpts, olr *OpenLoopResult) {
	keys := e.olKeys[:0]
	for _, st := range e.part.states[:e.part.n] {
		keys = append(keys, st.done...)
		st.done = st.done[:0]
	}
	slices.Sort(keys)
	for _, key := range keys {
		if opts.Probe != nil {
			opts.Probe.FlitDelivered(step, int32(key>>32))
		}
		if key&olDoneBit != 0 {
			e.olDeliver(int32(uint32(key)&^olDoneBit), step, opts, olr)
		}
	}
	e.olKeys = keys
}
