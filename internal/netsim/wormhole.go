package netsim

import "fmt"

// True wormhole switching (§7, Dally & Seitz [9,10]): a message's head
// acquires links one at a time and each acquired link is held — usable
// by no other message — until the message's tail (its last flit) has
// passed. Blocked messages therefore stall in place across several
// nodes instead of buffering, which is cheap in hardware but can
// deadlock when routes form a cyclic channel dependency. The simulator
// detects deadlock (a step with work remaining but no grant and no
// flit movement) and reports it; dimension-ordered (e-cube) routes are
// provably deadlock-free and pass cleanly.
//
// Like the Engine behind Simulate, the implementation numbers links
// densely up front and keeps all per-link and per-message state in
// flat slices: channel holders, waiter FIFOs (intrusive lists — a
// message waits on at most one link at a time), and flit counts are
// array lookups, and the per-step map iteration + sort of the original
// implementation is gone. Grant and transfer decisions are independent
// across links within a step, so iterating links in dense-id order
// yields results identical to the original's sorted-id order.

// WormholeResult extends Result with holding diagnostics.
type WormholeResult struct {
	Result
	MaxLinksHeld int // largest channel footprint of any message
}

// flitBuffer is the per-channel flit buffer depth. Two slots give
// full-rate pipelining while keeping worms compact; one slot would
// halve the steady-state rate, unbounded slots would degenerate into
// virtual cut-through.
const flitBuffer = 2

// ErrDeadlock reports a detected cyclic channel wait.
type ErrDeadlock struct {
	Step    int
	Blocked int // messages still undelivered
}

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("netsim: wormhole deadlock at step %d with %d messages blocked", e.Step, e.Blocked)
}

// SimulateWormhole runs the channel-holding wormhole model to
// completion or deadlock. Link arbitration is FIFO by request step,
// ties broken by message id.
//
// Like Simulate, it borrows a pooled Engine: the generation-stamped
// link-numbering pass and all per-run scratch are reused across calls,
// so a warm call allocates nothing beyond the result.
func SimulateWormhole(msgs []*Message) (*WormholeResult, error) {
	e := enginePool.get()
	res, err := e.simulateWormhole(msgs, nil)
	enginePool.put(e)
	return res, err
}

// simulateWormhole is the wormhole model on this Engine; probe, when
// non-nil, observes the run.
func (e *Engine) simulateWormhole(msgs []*Message, probe Probe) (*WormholeResult, error) {
	// Dense link numbering over the routes (the same numberAll pass as
	// Engine.Simulate; ids are assigned in first-appearance order,
	// matching the original map-based pass) and flat position state.
	shape, err := e.numberAll(msgs)
	if err != nil {
		return nil, err
	}
	total, links := shape.total, int(shape.links)
	if probe != nil {
		e.fillExt(msgs, int32(links))
		e.beginProbe(probe, msgs, int32(links), 0, true)
	}
	route, off := e.route, e.off

	crossed := grow(e.crossed, total) // flits across each route position
	head := grow(e.whHead, len(msgs))
	tail := grow(e.whTail, len(msgs))
	done := grow(e.whDone, len(msgs))
	waitNext := grow(e.whWaitNext, len(msgs)) // intrusive waiter FIFO
	waitingOn := grow(e.whWaitingOn, len(msgs))
	e.crossed, e.whHead, e.whTail, e.whDone = crossed, head, tail, done
	e.whWaitNext, e.whWaitingOn = waitNext, waitingOn
	for p := 0; p < total; p++ {
		crossed[p] = 0
	}
	for i := range msgs {
		tail[i] = 0
		done[i] = false
	}

	holder := grow(e.whHolder, links) // link → message id, -1 free
	waitHead := grow(e.whWaitHead, links)
	waitTail := grow(e.whWaitTail, links)
	waitLen := grow(e.whWaitLen, links)
	e.whHolder, e.whWaitHead, e.whWaitTail, e.whWaitLen = holder, waitHead, waitTail, waitLen
	for l := 0; l < links; l++ {
		holder[l] = -1
		waitHead[l] = -1
		waitTail[l] = -1
		waitLen[l] = 0
	}

	res := &WormholeResult{}
	remaining := 0
	wait := func(mi, l int32) {
		if waitTail[l] < 0 {
			waitHead[l] = mi
		} else {
			waitNext[waitTail[l]] = mi
		}
		waitTail[l] = mi
		waitNext[mi] = -1
		waitingOn[mi] = l
		waitLen[l]++
	}
	for i, m := range msgs {
		head[i] = -1
		waitingOn[i] = -1
		if len(m.Route) > 0 {
			remaining++
			wait(int32(i), route[off[i]])
		} else {
			done[i] = true
		}
	}

	moves := e.whMoves[:0] // positions crossing this step
	step := 0
	for remaining > 0 {
		step++
		progress := false
		// Allocation: grant free links to the first waiter.
		for l := 0; l < links; l++ {
			mi := waitHead[l]
			if mi < 0 {
				continue
			}
			if holder[l] >= 0 {
				if waitLen[l] > res.MaxLinkQueue {
					res.MaxLinkQueue = waitLen[l]
				}
				continue
			}
			waitHead[l] = waitNext[mi]
			if waitHead[l] < 0 {
				waitTail[l] = -1
			}
			waitLen[l]--
			waitingOn[mi] = -1
			holder[l] = mi
			head[mi]++
			progress = true
		}
		// Transfer: each held link moves one flit if its predecessor
		// has delivered one. Decide every transfer from start-of-step
		// counts, then apply, so no flit crosses two links in one step.
		// A flit may cross link j only if one is buffered behind it and
		// the flit buffer ahead of it (flitBuffer slots per channel)
		// has room — this is what makes a stalled head stall the whole
		// worm in place instead of draining into intermediate nodes.
		moves = moves[:0]
		for l := 0; l < links; l++ {
			mi := holder[l]
			if mi < 0 {
				continue
			}
			base, end := off[mi], off[mi+1]
			hop := int32(-1)
			for j := tail[mi]; j <= head[mi] && base+j < end; j++ {
				if route[base+j] == int32(l) {
					hop = j
					break
				}
			}
			if hop < 0 {
				return nil, fmt.Errorf("netsim: message %d holds link %d outside its window", mi, l)
			}
			p := base + hop
			avail := msgs[mi].Flits
			if hop > 0 {
				avail = crossed[p-1]
			}
			if avail-crossed[p] <= 0 {
				continue
			}
			if p+1 < end && crossed[p]-crossed[p+1] >= flitBuffer {
				continue // downstream buffer full
			}
			moves = append(moves, p)
		}
		for _, p := range moves {
			crossed[p]++
			res.FlitsMoved++
			progress = true
			if probe != nil {
				mi := e.posMsg[p]
				probe.FlitMoved(step, mi, route[p])
				if p == off[mi+1]-1 {
					probe.FlitDelivered(step, mi)
				}
			}
		}
		// Post-transfer bookkeeping: head requests, tail releases,
		// completion.
		for mi := range msgs {
			if done[mi] {
				continue
			}
			if span := int(head[mi]-tail[mi]) + 1; span > res.MaxLinksHeld {
				res.MaxLinksHeld = span
			}
			base, rlen := off[mi], off[mi+1]-off[mi]
			// Head extends once the first flit has arrived at its node.
			if h := head[mi]; h >= 0 && h+1 < rlen && crossed[base+h] == 1 {
				next := route[base+h+1]
				if holder[next] != int32(mi) && waitingOn[mi] < 0 {
					wait(int32(mi), next)
				}
			}
			// Tail releases fully-drained links.
			for tail[mi] <= head[mi] && crossed[base+tail[mi]] == msgs[mi].Flits {
				holder[route[base+tail[mi]]] = -1
				tail[mi]++
			}
			if tail[mi] == rlen {
				done[mi] = true
				remaining--
				res.DeliveredMsgs++
				if probe != nil {
					probe.MsgDone(step, int32(mi), true)
				}
			}
		}
		if probe != nil {
			probe.StepEnd(step, waitLen[:links])
		}
		if !progress && remaining > 0 {
			return nil, &ErrDeadlock{Step: step, Blocked: remaining}
		}
	}
	res.Steps = step
	res.DeliveredMsgs += countEmptyRoutes(msgs)
	e.whMoves = moves
	return res, nil
}
