package core

import (
	"fmt"
	"sync/atomic"

	"multipath/internal/netsim"
)

// Packet-cost measurement under the paper's model: in one time unit
// each processor can send one packet over each outgoing link (§3).

// SynchronizedCost checks the schedule used by Theorems 1, 2 and 4: one
// packet is injected on every path of every guest edge at step 1, and
// each packet advances one hop per step with no queueing. If no two
// packets cross the same directed host edge in the same step, the cost
// is the maximum path length; otherwise an error describes the first
// collision.
//
// The check runs step by step over the cached routes: a pooled counter
// slice claims each step's host edges in parallel, then a second pass
// re-zeroes exactly the claimed entries. A collision falls back to the
// reference implementation for the original error message.
func (e *Embedding) SynchronizedCost() (int, error) {
	rc, err := e.routes()
	if err != nil {
		return e.SynchronizedCostReference()
	}
	totalPaths := len(rc.pathOff) - 1
	cp := getCounts(e.Host.DirectedEdges())
	defer putCounts(cp)
	counts := *cp
	var collide atomic.Bool
	for t := 0; t < rc.maxLen && !collide.Load(); t++ {
		parallelFor(totalPaths, 256, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				at := rc.pathOff[p] + int32(t)
				if at < rc.pathOff[p+1] {
					if atomic.AddInt32(&counts[rc.ids[at]], 1) == 2 {
						collide.Store(true)
					}
				}
			}
		})
		parallelFor(totalPaths, 256, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				at := rc.pathOff[p] + int32(t)
				if at < rc.pathOff[p+1] {
					atomic.StoreInt32(&counts[rc.ids[at]], 0)
				}
			}
		})
	}
	if collide.Load() {
		return e.SynchronizedCostReference()
	}
	return rc.maxLen, nil
}

// PPacketCost simulates one phase in which every guest edge carries p
// packets, spread round-robin over the edge's paths, with store-and-
// forward queueing: each directed host edge transmits at most one
// packet per step (FIFO by arrival, ties broken by injection order).
// It returns the number of steps until every packet is delivered.
//
// The simulation itself is the pooled netsim engine: each packet is a
// one-flit store-and-forward message over its path's cached edge ids.
// The engine's contention rule — FIFO by arrival step, same-step ties
// by message id — reproduces the injection-order tie-break exactly (see
// TestPPacketCostTieBreak and the equivalence tests against the
// retired built-in simulator).
//
// This is the measured counterpart of the paper's p-packet cost: for
// Theorem 1's embedding PPacketCost(⌊n/2⌋) = 3, and for the classical
// Gray-code embedding PPacketCost(m) = m.
func (e *Embedding) PPacketCost(p int) (int, error) {
	if p < 1 {
		return 0, fmt.Errorf("core: p must be positive")
	}
	msgs, err := e.packetMessages(p)
	if err != nil {
		return 0, err
	}
	res, err := netsim.Simulate(msgs, netsim.StoreAndForward)
	if err != nil {
		return 0, fmt.Errorf("core: packet simulation: %w", err)
	}
	return res.Steps, nil
}

// PPacketCosts measures PPacketCost for every p in ps with one
// netsim.SimulateBatch call, fanning the independent simulations out
// across GOMAXPROCS pooled engines. Results are identical to calling
// PPacketCost serially for each p.
func (e *Embedding) PPacketCosts(ps []int) ([]int, error) {
	for _, p := range ps {
		if p < 1 {
			return nil, fmt.Errorf("core: p must be positive")
		}
	}
	jobs := make([]netsim.BatchJob, len(ps))
	for k, p := range ps {
		msgs, err := e.packetMessages(p)
		if err != nil {
			return nil, err
		}
		jobs[k] = netsim.BatchJob{Msgs: msgs, Mode: netsim.StoreAndForward}
	}
	results, err := netsim.SimulateBatch(jobs)
	if err != nil {
		return nil, fmt.Errorf("core: packet simulation: %w", err)
	}
	costs := make([]int, len(ps))
	for k, r := range results {
		costs[k] = r.Steps
	}
	return costs, nil
}

// packetMessages builds the p-packet workload: for each guest edge, p
// one-flit messages spread round-robin over the edge's paths in path
// order, skipping zero-length routes (co-located endpoints deliver at
// cost 0). Message order is injection order, which is what the engine
// uses to break same-step ties. Routes alias the route cache's id
// arena, so the whole workload costs two allocations: the message
// headers and the pointers to them.
func (e *Embedding) packetMessages(p int) ([]*netsim.Message, error) {
	rc, err := e.routes()
	if err != nil {
		return nil, err
	}
	nMsgs := 0
	for i := range e.Paths {
		first, past := rc.edgeOff[i], rc.edgeOff[i+1]
		if first == past {
			continue
		}
		for k := 0; k < p; k++ {
			pi := first + int32(k)%(past-first)
			if rc.pathOff[pi+1] > rc.pathOff[pi] {
				nMsgs++
			}
		}
	}
	msgs := make([]*netsim.Message, 0, nMsgs)
	hdrs := make([]netsim.Message, nMsgs)
	for i := range e.Paths {
		first, past := rc.edgeOff[i], rc.edgeOff[i+1]
		if first == past {
			continue
		}
		for k := 0; k < p; k++ {
			pi := first + int32(k)%(past-first)
			ids := rc.pathIDs(pi)
			if len(ids) == 0 {
				continue
			}
			hdrs[len(msgs)] = netsim.Message{Route: ids, Flits: 1}
			msgs = append(msgs, &hdrs[len(msgs)])
		}
	}
	return msgs, nil
}

// OnePacketCostBounds returns the §3 sandwich for the one-packet cost:
// at least the latency floor (for a classical single-path embedding,
// max(dilation, congestion); for a width-w embedding a lone packet may
// ride each edge's shortest path, so the floor is MinDilation) and at
// most dilation × congestion (Leighton, Maggs & Rao [19] tighten the
// upper bound to O(dilation + congestion)). Tests assert the measured
// PPacketCost(1) falls inside these bounds for every construction.
func (e *Embedding) OnePacketCostBounds() (lower, upper int, err error) {
	c, err := e.Congestion()
	if err != nil {
		return 0, 0, err
	}
	d := e.Dilation()
	lower = e.MinDilation()
	singlePath := true
	for _, ps := range e.Paths {
		if len(ps) != 1 {
			singlePath = false
			break
		}
	}
	if singlePath && c > lower {
		lower = c
	}
	upper = d * c
	if upper < lower {
		upper = lower
	}
	return lower, upper, nil
}
