package netsim

import (
	"reflect"
	"testing"

	"multipath/internal/faults"
)

// Regression for the StepOffset horizon bound: the livelock limit used
// stepLimit + Horizon() without subtracting StepOffset, so late retry
// rounds (whose offsets grow without bound) inherited slack for outages
// that were already history. The adjusted bound must remain sufficient:
// a run entered near the end of a long outage still has to ride out the
// remaining window and finish without tripping the limit.
func TestStepOffsetHorizonBoundSufficient(t *testing.T) {
	// Link 1 is down for steps 1..999 on the schedule clock. Entering at
	// offset 995, run steps 1..4 query schedule steps 996..999 and find
	// the link down; the flit crosses at run step 5.
	sched := faults.NewSchedule().FailLinkTransient(1, 1, 1000)
	msgs := []*Message{{Route: []int32{1}, Flits: 1}}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		fr, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched, StepOffset: 995})
		if err != nil {
			t.Fatalf("%v: tightened bound tripped on a legitimate run: %v", mode, err)
		}
		if fr.DeliveredMsgs != 1 || fr.Steps != 5 || fr.TimedOut {
			t.Errorf("%v: got %+v, want delivery at step 5", mode, fr)
		}
	}
}

// An offset at or beyond the horizon makes the schedule pure history:
// the run must match the fault-free simulation bit for bit (same
// Result), and the remaining-horizon slack must clamp at zero rather
// than going negative and eating into the base livelock bound.
func TestStepOffsetPastHorizonMatchesFaultFree(t *testing.T) {
	sched := faults.NewSchedule().
		FailLinkTransient(1, 1, 40).
		FailLinkTransient(2, 5, 30)
	msgs := []*Message{
		{Route: []int32{1}, Flits: 2},
		{Route: []int32{2, 1}, Flits: 1},
		{Route: []int32{3, 1}, Flits: 1},
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		bare, err := Simulate(msgs, mode)
		if err != nil {
			t.Fatal(err)
		}
		for _, offset := range []int{40, 41, 10_000} {
			fr, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched, StepOffset: offset})
			if err != nil {
				t.Fatalf("%v offset %d: %v", mode, offset, err)
			}
			if !reflect.DeepEqual(&fr.Result, bare) {
				t.Errorf("%v offset %d: spent schedule diverged from fault-free:\nfault %+v\nbare  %+v",
					mode, offset, fr.Result, bare)
			}
		}
	}
}

// StepOffset is a pure clock shift: running round r against a schedule
// is the same run as offset 0 against the schedule translated by -r.
func TestStepOffsetIsScheduleTranslation(t *testing.T) {
	msgs := []*Message{
		{Route: []int32{1, 2}, Flits: 3},
		{Route: []int32{2}, Flits: 2},
		{Route: []int32{3, 2}, Flits: 1},
	}
	const shift = 50
	shifted := faults.NewSchedule().
		FailLinkTransient(2, shift+2, shift+7).
		FailLinkTransient(1, shift+1, shift+3)
	base := faults.NewSchedule().
		FailLinkTransient(2, 2, 7).
		FailLinkTransient(1, 1, 3)
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		a, err := SimulateFaults(msgs, mode, FaultOpts{Faults: shifted, StepOffset: shift})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SimulateFaults(msgs, mode, FaultOpts{Faults: base})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: offset %d run diverged from translated schedule:\nshifted %+v\nbase    %+v",
				mode, shift, a, b)
		}
	}
}

// The fault path's MaxLinkQueue accounting mirrors the fault-free
// engine's (sampled at enqueue time): TestMaxLinkQueueHandComputed's
// workload, now with link 1 transiently down while the queue builds.
// The outage delays A mid-transfer, so B's and C's second hops still
// pile up behind it — peak queue 3 — and everything delivers once the
// link recovers.
func TestMaxLinkQueueHandComputedUnderFaults(t *testing.T) {
	msgs := []*Message{
		{Route: []int32{1}, Flits: 2},    // A
		{Route: []int32{2, 1}, Flits: 1}, // B
		{Route: []int32{3, 1}, Flits: 1}, // C
	}
	// Down for steps 2..3: A moves a flit at step 1, stalls two steps,
	// finishes from step 4; B and C join link 1's queue at the end of
	// step 1 as in the fault-free run.
	sched := faults.NewSchedule().FailLinkTransient(1, 2, 4)
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		fr, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		if fr.MaxLinkQueue != 3 {
			t.Errorf("%v: MaxLinkQueue = %d, want 3", mode, fr.MaxLinkQueue)
		}
		if fr.DeliveredMsgs != 3 || fr.FailedMsgs != 0 {
			t.Errorf("%v: delivered %d failed %d, want 3/0", mode, fr.DeliveredMsgs, fr.FailedMsgs)
		}
		// Fault-free run takes 4 steps; the 2-step outage costs exactly 2.
		if fr.Steps != 6 {
			t.Errorf("%v: steps = %d, want 6", mode, fr.Steps)
		}
		if fr.FlitsMoved != 6 || fr.DroppedFlits != 0 {
			t.Errorf("%v: moved %d dropped %d, want 6/0", mode, fr.FlitsMoved, fr.DroppedFlits)
		}
	}
}

// Same workload with the outage turned permanent at step 2: A is killed
// mid-transfer with one flit across, and B and C — whose second hop
// lands on the dead link — fail as their flits arrive. The peak queue
// is still sampled before the kills shrink the FIFO.
func TestMaxLinkQueueHandComputedPermanentFault(t *testing.T) {
	msgs := []*Message{
		{Route: []int32{1}, Flits: 2},    // A
		{Route: []int32{2, 1}, Flits: 1}, // B
		{Route: []int32{3, 1}, Flits: 1}, // C
	}
	sched := faults.NewSchedule().FailLink(1, 2)
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		fr, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		if fr.DeliveredMsgs != 0 || fr.FailedMsgs != 3 {
			t.Fatalf("%v: delivered %d failed %d, want 0/3 (%+v)", mode, fr.DeliveredMsgs, fr.FailedMsgs, fr)
		}
		// A crossed one flit at step 1; B and C crossed their first hop.
		// Everything else — A's second flit, B's and C's second hop — is
		// dropped: 6 total flit-hops, 3 moved, 3 dropped.
		if fr.FlitsMoved != 3 || fr.DroppedFlits != 3 {
			t.Errorf("%v: moved %d dropped %d, want 3/3", mode, fr.FlitsMoved, fr.DroppedFlits)
		}
		// The queue on link 1 still peaked at 3 (A + B + C enqueued at
		// the end of step 1) before the step-2 kills emptied it.
		if fr.MaxLinkQueue != 3 {
			t.Errorf("%v: MaxLinkQueue = %d, want 3", mode, fr.MaxLinkQueue)
		}
		for i, o := range fr.Outcomes {
			if o.Delivered || o.FailedLink != 1 {
				t.Errorf("%v: outcome[%d] = %+v, want failure blaming link 1", mode, i, o)
			}
		}
	}
}
