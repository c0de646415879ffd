package main

import (
	"fmt"

	"multipath/internal/netsim"
)

// injected returns Σ flits·len(route) over msgs: the flit-hops a run of
// them must either move or drop.
func injected(msgs []*netsim.Message) int64 {
	var n int64
	for _, m := range msgs {
		n += int64(m.Flits * len(m.Route))
	}
	return n
}

// positions returns Σ len(route) over msgs: the route positions the
// engine's numbering pass visits.
func positions(msgs []*netsim.Message) int64 {
	var n int64
	for _, m := range msgs {
		n += int64(len(m.Route))
	}
	return n
}

// checkClosed checks a closed-loop run of n messages carrying hops
// flit-hops: every flit-hop moved or dropped, every message delivered
// or failed.
func checkClosed(r *netsim.Result, n int, hops int64) error {
	if int64(r.FlitsMoved+r.DroppedFlits) != hops {
		return fmt.Errorf("flits not conserved: moved %d + dropped %d != injected %d", r.FlitsMoved, r.DroppedFlits, hops)
	}
	if r.DeliveredMsgs+r.FailedMsgs != n {
		return fmt.Errorf("messages not accounted for: delivered %d + failed %d != %d", r.DeliveredMsgs, r.FailedMsgs, n)
	}
	return nil
}

// checkOpen checks an open-loop run fed arrivals arrivals that had no
// step limit to hit.
func checkOpen(r *netsim.OpenLoopResult, arrivals int) error {
	if r.FlitsMoved+r.DroppedFlits != r.InjectedHops {
		return fmt.Errorf("flits not conserved: moved %d + dropped %d != injected %d", r.FlitsMoved, r.DroppedFlits, r.InjectedHops)
	}
	if r.DeliveredMsgs+r.FailedMsgs != r.Injected {
		return fmt.Errorf("messages not accounted for: delivered %d + failed %d != injected %d", r.DeliveredMsgs, r.FailedMsgs, r.Injected)
	}
	if r.TimedOut || r.Injected != arrivals {
		return fmt.Errorf("injected %d of %d arrivals (timed out: %v)", r.Injected, arrivals, r.TimedOut)
	}
	return nil
}
