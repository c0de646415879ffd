package core

import (
	"fmt"

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
// The check is collides' serial pass over the cached routes. A
// collision falls back to the reference implementation for the original
// error message.
func (e *Embedding) SynchronizedCost() (int, error) {
	rc, err := e.routes()
	if err != nil || rc.collides(e.Host.DirectedEdges()) {
		return e.SynchronizedCostReference()
	}
	return rc.maxLen, nil
}

// collides reports whether two hops of the synchronized schedule cross
// one of the hostEdges directed host edges at the same step. It keys
// the hops in windows of w = min(L, collideWindow) steps, L the longest
// path: hop t of a path, in the window from step s, is the key
// id·w+(t−s). One serial pass over the paths per window sets each key's
// bit in a pooled bitset of hostEdges·w bits, and a key already set is
// a collision. So the bitset is never larger than one int32 counter per
// edge, and every paper construction takes one window. A serial pass
// needs no atomics, so the cache misses of consecutive hops overlap.
func (rc *routeCache) collides(hostEdges int) bool {
	w := min(rc.maxLen, collideWindow)
	bp := keyBitsets.get(hostEdges * w)
	defer keyBitsets.put(bp)
	for s := 0; s < rc.maxLen; s += w {
		if rc.collidesIn(*bp, s, w) {
			return true
		}
	}
	return false
}

// collideWindow is the most steps one collides pass keys: a bitset of
// hostEdges·32 bits is the size of one int32 counter per edge.
const collideWindow = 32

// collidesIn is collides' pass over the window of w steps from step s.
// Before returning, it zeroes bits whole when the bitset has no more
// words than the visited paths have hops, which is every paper
// construction, and clears the visited keys otherwise.
func (rc *routeCache) collidesIn(bits []uint64, s, w int) bool {
	paths := len(rc.pathOff) - 1
	collide := false
scan:
	for p := 0; p < paths; p++ {
		for t, id := range rc.window(p, s, w) {
			k := uint(id)*uint(w) + uint(t)
			if bits[k>>6]&(1<<(k&63)) != 0 {
				collide, paths = true, p+1
				break scan
			}
			bits[k>>6] |= 1 << (k & 63)
		}
	}
	if len(bits) <= int(rc.pathOff[paths]) {
		clear(bits)
		return collide
	}
	for p := 0; p < paths; p++ {
		for t, id := range rc.window(p, s, w) {
			k := uint(id)*uint(w) + uint(t)
			bits[k>>6] &^= 1 << (k & 63)
		}
	}
	return collide
}

// window returns path p's ids at the w steps from step s.
func (rc *routeCache) window(p, s, w int) []int32 {
	ids := rc.ids[rc.pathOff[p]:rc.pathOff[p+1]]
	if w == rc.maxLen { // one window holds every path whole
		return ids
	}
	if s >= len(ids) {
		return nil
	}
	return ids[s:min(s+w, len(ids))]
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
	rc, err := e.routes()
	if err != nil {
		return 0, err
	}
	res, err := netsim.Simulate(rc.packetMessages(p), netsim.StoreAndForward)
	if err != nil {
		return 0, fmt.Errorf("core: packet simulation: %w", err)
	}
	return res.Steps, nil
}

// PPacketCosts measures PPacketCost for every p in ps with one
// netsim.SimulateBatch call, fanning the independent simulations out
// across GOMAXPROCS pooled engines. The route cache is read once for
// the whole sweep. Results are identical to calling PPacketCost
// serially for each p.
func (e *Embedding) PPacketCosts(ps []int) ([]int, error) {
	for _, p := range ps {
		if p < 1 {
			return nil, fmt.Errorf("core: p must be positive")
		}
	}
	rc, err := e.routes()
	if err != nil {
		return nil, err
	}
	jobs := make([]netsim.BatchJob, len(ps))
	for k, p := range ps {
		jobs[k] = netsim.BatchJob{Msgs: rc.packetMessages(p), Mode: netsim.StoreAndForward}
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

// packetMessages builds the p-packet workload over the cached routes:
// for each guest edge, p one-flit messages spread round-robin over the
// edge's paths in path order, skipping zero-length routes (co-located
// endpoints deliver at cost 0). Message order is injection order, which
// is what the engine uses to break same-step ties. Routes alias the id
// arena, so the whole workload costs two allocations: the message
// headers and the pointers to them.
func (rc *routeCache) packetMessages(p int) []*netsim.Message {
	m := len(rc.edgeOff) - 1
	nMsgs := 0
	for i := 0; i < m; i++ {
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
	for i := 0; i < m; i++ {
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
	return msgs
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
