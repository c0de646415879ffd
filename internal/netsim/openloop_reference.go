package netsim

import (
	"fmt"
	"slices"
)

// SimulateOpenLoopReference is the retained naive open-loop golden
// model: the same injection, switching, fault, and timeout semantics
// as SimulateOpenLoop, built the obvious way —
//
//   - every step is iterated one at a time (no leap clock), including
//     the quiescent steps between arrivals;
//   - every injected message allocates its own state for the whole run
//     (no slot recycling), so memory grows with the injected total;
//   - per-link FIFOs are map-backed slices scanned per step, as in
//     SimulateReference.
//
// It exists as the correctness anchor and the perf baseline:
// FuzzSimulateOpenLoop holds SimulateOpenLoop bit-identical to this
// model (results, per-message latencies, failures), and the E26
// benchmark reports the engine's speedup over it. OpenLoopOpts.Probe
// is ignored here; everything else is honored, the Listener with the
// event order and the source re-polling documented on FaultListener
// and ArrivalSource.
func SimulateOpenLoopReference(tmpls []*Message, src ArrivalSource, opts OpenLoopOpts) (*OpenLoopResult, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	maxRoute := 0
	for i, m := range tmpls {
		if m.Flits < 1 {
			return nil, fmt.Errorf("netsim: message %d has %d flits", i, m.Flits)
		}
		if len(m.Route) > maxRoute {
			maxRoute = len(m.Route)
		}
	}
	graceful := opts.StepLimit > 0
	horizon := 0
	if opts.Faults != nil {
		horizon = opts.Faults.Horizon()
		if horizon < 0 && !graceful {
			return nil, fmt.Errorf("netsim: unbounded fault schedule requires OpenLoopOpts.StepLimit")
		}
	}

	type refMsg struct {
		arrival int
		flits   int
		route   []int32 // external link ids
		arrived []int
		crossed []int
		buffer  []int
		queued  []bool
		dead    bool
		done    bool
	}
	type want struct {
		msg int32
		hop int
	}
	// rank orders links by first crossing in template order: the order
	// LinkDown events of one step follow.
	rank := map[int32]int{}
	for _, m := range tmpls {
		for _, l := range m.Route {
			if _, ok := rank[l]; !ok {
				rank[l] = len(rank)
			}
		}
	}

	olr := &OpenLoopResult{}
	queues := map[int32][]want{}
	var msgs []*refMsg
	live, inFlight := 0, 0

	pending, havePending := src.Next()
	if havePending && pending.Step < 0 {
		return nil, fmt.Errorf("netsim: arrival step %d is negative", pending.Step)
	}
	lastStep := pending.Step // step of the last arrival pulled
	pull := func(step int, repoll bool) error {
		n, ok := src.Next()
		if !ok {
			havePending = false
			return nil
		}
		if n.Step < lastStep {
			return fmt.Errorf("netsim: arrival %d: steps must be nondecreasing (step %d after %d)", len(msgs), n.Step, lastStep)
		}
		if repoll && n.Step < step {
			return fmt.Errorf("netsim: arrival %d: re-polled at step %d for past step %d", len(msgs), step, n.Step)
		}
		pending, havePending, lastStep = n, true, n.Step
		return nil
	}

	enqueue := func(mi int32, hop int) {
		m := msgs[mi]
		l := m.route[hop]
		queues[l] = append(queues[l], want{mi, hop})
		m.queued[hop] = true
		if n := len(queues[l]); n > olr.MaxLinkQueue {
			olr.MaxLinkQueue = n
		}
	}

	inject := func(step int) error {
		a := pending
		if a.Tmpl < 0 || int(a.Tmpl) >= len(tmpls) {
			return fmt.Errorf("netsim: arrival %d names template %d of %d", len(msgs), a.Tmpl, len(tmpls))
		}
		mi := int32(len(msgs))
		olr.Injected++
		tm := tmpls[a.Tmpl]
		hops := len(tm.Route)
		olr.InjectedHops += tm.Flits * hops
		m := &refMsg{
			arrival: step,
			flits:   tm.Flits,
			route:   tm.Route,
			arrived: make([]int, hops),
			crossed: make([]int, hops),
			buffer:  make([]int, hops),
			queued:  make([]bool, hops),
		}
		msgs = append(msgs, m)
		if hops == 0 {
			m.done = true
			olr.DeliveredMsgs++
			if opts.Sink != nil && step >= opts.MeasureAfter {
				opts.Sink.Observe(0)
			}
			if opts.PerMessage != nil {
				opts.PerMessage(mi, step, step, true)
			}
			return nil
		}
		m.arrived[0] = tm.Flits
		live++
		inFlight += tm.Flits
		if live > olr.MaxInFlight {
			olr.MaxInFlight = live
		}
		enqueue(mi, 0)
		return nil
	}
	// injectDue injects the arrivals due at step. With a listener, an
	// exhausted source is asked again first: a listener reacting to a
	// failure may have scheduled a reroute.
	injectDue := func(step int) error {
		if !havePending && opts.Listener != nil {
			if err := pull(step, true); err != nil {
				return err
			}
		}
		for havePending && pending.Step == step {
			if err := inject(step); err != nil {
				return err
			}
			if err := pull(step, false); err != nil {
				return err
			}
		}
		return nil
	}

	fail := func(mi int32, step, blame int) bool {
		m := msgs[mi]
		if m.dead || m.done {
			return false
		}
		m.dead = true
		olr.FailedMsgs++
		dropped := 0
		for h := range m.route {
			dropped += m.flits - m.crossed[h]
			if m.queued[h] {
				l := m.route[h]
				q := queues[l]
				for i, w := range q {
					if w.msg == mi && w.hop == h {
						queues[l] = append(q[:i], q[i+1:]...)
						break
					}
				}
				m.queued[h] = false
			}
		}
		olr.DroppedFlits += dropped
		if opts.PerMessage != nil {
			opts.PerMessage(mi, m.arrival, step, false)
		}
		if opts.Listener != nil {
			opts.Listener.MsgFailed(step, mi, blame)
		}
		live--
		inFlight -= m.flits
		return true
	}

	var moved []want
	var downLinks []int32
	step := 0
	lastProgress := 0
	for {
		// Arrivals at step 0 enter before the first simulated step,
		// exactly as Simulate's initial injection. A drained network
		// re-polls a listener's source; with nothing live or pending the
		// run is over.
		if live == 0 {
			if err := injectDue(step); err != nil {
				return nil, err
			}
			if live == 0 && !havePending {
				break
			}
		}
		step++
		if graceful && step > opts.StepLimit {
			olr.TimedOut = true
			for mi, m := range msgs {
				if !m.done && !m.dead {
					fail(int32(mi), opts.StepLimit, -1)
				}
			}
			break
		}
		if !graceful && live > 0 {
			slack := stepLimit(inFlight, maxRoute, live)
			if h := horizon - lastProgress; h > 0 {
				slack += h
			}
			if step-lastProgress > slack {
				return nil, fmt.Errorf("netsim: no progress after %d steps", slack)
			}
		}
		// Transfer phase: scan every queue for its first sendable
		// request. Per-link decisions are independent, so map order
		// does not affect the outcome; a link is "active" exactly when
		// it has a sendable request, which is when the engine's credit
		// worklist would visit it (including the fault checks).
		moved = moved[:0]
		downLinks = downLinks[:0]
		for l, q := range queues {
			sel := -1
			for i, w := range q {
				m := msgs[w.msg]
				if m.arrived[w.hop]-m.crossed[w.hop] > 0 {
					sel = i
					break
				}
			}
			if sel < 0 {
				continue
			}
			if opts.Faults != nil {
				if dn, perm := opts.Faults.Status(int(l), step); dn {
					if perm {
						downLinks = append(downLinks, l)
					}
					continue
				}
			}
			w := q[sel]
			m := msgs[w.msg]
			m.crossed[w.hop]++
			olr.FlitsMoved++
			moved = append(moved, w)
			if m.crossed[w.hop] == m.flits {
				queues[l] = append(q[:sel], q[sel+1:]...)
				m.queued[w.hop] = false
			}
		}
		// Kill phase: permanently-down links with sendable requests
		// fail them, deferred out of the transfer scan exactly as in
		// the engines, in first-crossing order. The kill set is
		// order-independent (a down link moves nothing during the
		// step); the blame and the event order are not.
		killed := false
		if len(downLinks) > 0 {
			slices.SortFunc(downLinks, func(a, b int32) int { return rank[a] - rank[b] })
			for _, l := range downLinks {
				if opts.Listener != nil {
					opts.Listener.LinkDown(step, int(l), true)
				}
				var kills []int32
				for _, w := range queues[l] {
					m := msgs[w.msg]
					if !m.dead && m.arrived[w.hop]-m.crossed[w.hop] > 0 {
						kills = append(kills, w.msg)
					}
				}
				for _, mi := range kills {
					if fail(mi, step, int(l)) {
						killed = true
					}
				}
			}
		}
		// Arrival phase in (message id, hop) order — the documented
		// FIFO tie-break — absorbing flits of messages killed this
		// step. New injections enqueue after all of these, carrying
		// larger message ids, so the per-step enqueue order is globally
		// (message id, hop)-sorted.
		slices.SortFunc(moved, func(a, b want) int {
			if a.msg != b.msg {
				if a.msg < b.msg {
					return -1
				}
				return 1
			}
			if a.hop < b.hop {
				return -1
			}
			return 1
		})
		for _, w := range moved {
			m := msgs[w.msg]
			if m.dead {
				continue
			}
			next := w.hop + 1
			if next == len(m.route) {
				if m.crossed[w.hop] == m.flits {
					m.done = true
					olr.DeliveredMsgs++
					if opts.Sink != nil && m.arrival >= opts.MeasureAfter {
						opts.Sink.Observe(step - m.arrival)
					}
					if opts.PerMessage != nil {
						opts.PerMessage(w.msg, m.arrival, step, true)
					}
					live--
					inFlight -= m.flits
				}
				continue
			}
			switch opts.Mode {
			case CutThrough:
				m.arrived[next]++
			case StoreAndForward:
				m.buffer[next]++
				if m.buffer[next] == m.flits {
					m.arrived[next] = m.flits
				}
			}
			if !m.queued[next] && m.arrived[next] > 0 {
				enqueue(w.msg, next)
			}
		}
		before := len(msgs)
		if err := injectDue(step); err != nil {
			return nil, err
		}
		if len(moved) > 0 || killed || len(msgs) > before {
			lastProgress = step
		}
	}
	if olr.TimedOut {
		olr.Steps = opts.StepLimit
	} else {
		olr.Steps = step
	}
	return olr, nil
}
