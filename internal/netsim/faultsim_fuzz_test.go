package netsim

import (
	"reflect"
	"testing"

	"multipath/internal/faults"
)

// decodeFuzzSchedule builds a bounded fault schedule from the tail of
// the fuzz input: up to 6 events over the same 12-link id space the
// fuzz routes use, with fail/recover steps in [1, 48]. Total decode —
// any byte string is a valid schedule.
func decodeFuzzSchedule(data []byte) *faults.Schedule {
	s := faults.NewSchedule()
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		b := int(data[at])
		at++
		return b
	}
	events := next() % 7
	for i := 0; i < events; i++ {
		link := next() % 12
		from := 1 + next()%48
		if next()%2 == 0 {
			s.FailLink(link, from)
		} else {
			s.FailLinkTransient(link, from, from+1+next()%48)
		}
	}
	return s
}

// FuzzSimulateFaults asserts, for random route sets under random
// bounded schedules in both buffering modes:
//
//   - same-seed determinism: two runs give identical FaultResults,
//   - generalized conservation: FlitsMoved + DroppedFlits equals the
//     injected flit-hops, and DeliveredMsgs + FailedMsgs equals the
//     message count,
//   - outcome consistency: delivered messages blame no link and fit
//     inside Steps; failed ones name a step in [1, Steps],
//   - empty schedules are bit-identical to the fault-free engine,
//   - faults shifted onto unused link ids change nothing,
//   - asking Status only about the schedule's listed links changes
//     nothing: the same schedule behind a Status-only wrapper, asked
//     about every active link, gives the same FaultResult, with and
//     without a StepLimit and a StepOffset drawn from the input.
func FuzzSimulateFaults(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3, 2, 1, 1, 4, 2, 1, 2, 5}, []byte{2, 1, 1, 0, 5, 9, 1})
	f.Add([]byte{7, 6, 0, 1, 2, 3, 4, 5, 8}, []byte{6, 0, 1, 0, 1, 1, 1, 2, 2, 0, 3, 3, 1, 9})
	f.Add([]byte{5, 1, 3, 2, 1, 3, 2, 1, 3, 2}, []byte{1, 3, 1, 0})
	f.Fuzz(func(t *testing.T, routeData, schedData []byte) {
		msgs := decodeFuzzMessages(routeData)
		sched := decodeFuzzSchedule(schedData)
		wantHops := 0
		for _, m := range msgs {
			wantHops += m.Flits * len(m.Route)
		}
		limit, offset := 0, 0
		if n := len(schedData); n > 0 {
			limit, offset = 1+int(schedData[n-1])%40, int(schedData[0])%24
		}
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			a, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched})
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			b, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched})
			if err != nil {
				t.Fatalf("%v rerun: %v", mode, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v: nondeterministic: %+v vs %+v", mode, a, b)
			}
			if a.FlitsMoved+a.DroppedFlits != wantHops {
				t.Fatalf("%v: moved %d + dropped %d != injected %d",
					mode, a.FlitsMoved, a.DroppedFlits, wantHops)
			}
			if a.DeliveredMsgs+a.FailedMsgs != len(msgs) {
				t.Fatalf("%v: delivered %d + failed %d != %d",
					mode, a.DeliveredMsgs, a.FailedMsgs, len(msgs))
			}
			delivered := 0
			for i, o := range a.Outcomes {
				if o.Delivered {
					delivered++
					if o.FailedLink != -1 || o.Step > a.Steps {
						t.Fatalf("%v: bad delivered outcome %d: %+v", mode, i, o)
					}
				} else if o.Step < 1 || o.Step > a.Steps {
					t.Fatalf("%v: bad failed outcome %d: %+v (Steps %d)", mode, i, o, a.Steps)
				}
			}
			if delivered != a.DeliveredMsgs {
				t.Fatalf("%v: outcomes say %d delivered, result %d", mode, delivered, a.DeliveredMsgs)
			}

			// Fault-free equivalence: empty schedule == Simulate.
			ref, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatalf("%v reference: %v", mode, err)
			}
			clean, err := SimulateFaults(msgs, mode, FaultOpts{Faults: faults.NewSchedule()})
			if err != nil {
				t.Fatalf("%v clean: %v", mode, err)
			}
			if !reflect.DeepEqual(&clean.Result, ref) {
				t.Fatalf("%v: empty schedule diverged: %+v vs %+v", mode, clean.Result, *ref)
			}

			// Faults elsewhere: shift every event onto link ids ≥ 12,
			// which no fuzz route uses; the run must match fault-free.
			shifted := faults.NewSchedule()
			for _, l := range sched.Links() {
				shifted.FailLink(l+12, 1)
			}
			off, err := SimulateFaults(msgs, mode, FaultOpts{Faults: shifted})
			if err != nil {
				t.Fatalf("%v shifted: %v", mode, err)
			}
			if !reflect.DeepEqual(&off.Result, ref) {
				t.Fatalf("%v: faults on unused links changed the run", mode)
			}

			// Fault-set skip: the engine asks Status only about the
			// links the schedule lists; behind a Status-only wrapper it
			// asks about every active link, the golden model here.
			for _, o := range []FaultOpts{{}, {StepLimit: limit}, {StepOffset: offset}, {StepLimit: limit, StepOffset: offset}} {
				o.Faults = sched
				got, err := SimulateFaults(msgs, mode, o)
				if err != nil {
					t.Fatalf("%v limit=%d offset=%d: %v", mode, o.StepLimit, o.StepOffset, err)
				}
				o.Faults = statusOnly{sched}
				want, err := SimulateFaults(msgs, mode, o)
				if err != nil {
					t.Fatalf("%v limit=%d offset=%d Status-only: %v", mode, o.StepLimit, o.StepOffset, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v limit=%d offset=%d: fault-set run %+v != Status-only run %+v",
						mode, o.StepLimit, o.StepOffset, got, want)
				}
			}
		}
	})
}
