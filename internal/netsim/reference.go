package netsim

import (
	"fmt"
	"sort"
)

// SimulateReference is the original map-scanning simulator, retained
// verbatim as the golden model for the dense Engine: equivalence tests
// (TestEngineMatchesReference, FuzzSimulate) assert that Simulate
// produces bit-identical Results, and BenchmarkNetsimEngine measures
// the speedup against it. Its only change from the seed implementation
// is that same-step arrivals are processed in (message id, hop) order
// — the tie-break the package documentation always promised — instead
// of inheriting Go's random map-iteration order, which made same-step
// FIFO ties (and thus, in principle, Results) nondeterministic.
//
// It re-scans every queued link on every synchronous step, which is
// O(steps × links) with map overhead — do not use it on hot paths.
func SimulateReference(msgs []*Message, mode Mode) (*Result, error) {
	type state struct {
		m *Message
		// arrived[j] = flits available at the tail of link j;
		// crossed[j] = flits that have crossed link j.
		arrived  []int
		crossed  []int
		buffered []int // for StoreAndForward: flits pending release
		enqueued []bool
	}
	states := make([]*state, len(msgs))
	totalWork := 0
	remaining := 0
	for i, m := range msgs {
		if m.Flits < 1 {
			return nil, fmt.Errorf("netsim: message %d has %d flits", i, m.Flits)
		}
		s := &state{
			m:        m,
			arrived:  make([]int, len(m.Route)),
			crossed:  make([]int, len(m.Route)),
			buffered: make([]int, len(m.Route)),
			enqueued: make([]bool, len(m.Route)),
		}
		if len(m.Route) > 0 {
			s.arrived[0] = m.Flits
			remaining++
		}
		totalWork += m.Flits * len(m.Route)
		states[i] = s
	}
	// Per-link FIFO of (message, linkIndex) waiting to transfer.
	type want struct{ msg, hop int }
	queues := make(map[int32][]want)
	res := &Result{}
	for i, s := range states {
		if len(s.m.Route) > 0 {
			queues[s.m.Route[0]] = append(queues[s.m.Route[0]], want{i, 0})
			s.enqueued[0] = true
		}
	}
	limit := 4*totalWork + 4*len(msgs) + 16
	step := 0
	type delivery struct {
		msg, hop, count int
	}
	for remaining > 0 {
		step++
		if step > limit {
			return nil, fmt.Errorf("netsim: no progress after %d steps", limit)
		}
		var arrivals []delivery
		for link, q := range queues {
			if len(q) > res.MaxLinkQueue {
				res.MaxLinkQueue = len(q)
			}
			// First queued request with an available flit transfers.
			sel := -1
			for qi, w := range q {
				if states[w.msg].arrived[w.hop]-states[w.msg].crossed[w.hop] > 0 {
					sel = qi
					break
				}
			}
			if sel < 0 {
				continue
			}
			w := q[sel]
			s := states[w.msg]
			s.crossed[w.hop]++
			res.FlitsMoved++
			arrivals = append(arrivals, delivery{w.msg, w.hop, 1})
			// Drop from the queue if nothing more will ever cross here.
			if s.crossed[w.hop] == s.m.Flits {
				queues[link] = append(q[:sel:sel], q[sel+1:]...)
				s.enqueued[w.hop] = false
				if len(queues[link]) == 0 {
					delete(queues, link)
				}
			}
		}
		// Pin the same-step FIFO tie-break to (message id, hop); the
		// transfer loop above visits links in random map order, and
		// per-link transfer decisions are independent of that order,
		// but downstream enqueue order is not.
		sort.Slice(arrivals, func(i, j int) bool {
			if arrivals[i].msg != arrivals[j].msg {
				return arrivals[i].msg < arrivals[j].msg
			}
			return arrivals[i].hop < arrivals[j].hop
		})
		// Credit arrivals at the next hop after all transfers resolved,
		// so a flit moves at most one link per step.
		for _, d := range arrivals {
			s := states[d.msg]
			next := d.hop + 1
			if next == len(s.m.Route) {
				if s.crossed[d.hop] == s.m.Flits {
					remaining--
					res.DeliveredMsgs++
				}
				continue
			}
			switch mode {
			case CutThrough:
				s.arrived[next] += d.count
			case StoreAndForward:
				s.buffered[next] += d.count
				if s.buffered[next] == s.m.Flits {
					s.arrived[next] = s.m.Flits
				}
			}
			if !s.enqueued[next] && s.arrived[next] > 0 {
				queues[s.m.Route[next]] = append(queues[s.m.Route[next]], want{d.msg, next})
				s.enqueued[next] = true
			}
		}
	}
	res.Steps = step
	res.DeliveredMsgs += countEmptyRoutes(msgs)
	return res, nil
}
