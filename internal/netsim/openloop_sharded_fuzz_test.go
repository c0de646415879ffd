package netsim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// openLoopGolden runs SimulateOpenLoopReference, which shares no step
// loop code with the engine, on one input and returns a check holding
// an engine run of that input to it: same error text, same
// OpenLoopResult with SkippedSteps masked (the reference never leaps),
// same per-message records, same latency multiset.
func openLoopGolden(t *testing.T, tmpls []*Message, tr *Trace, opts OpenLoopOpts) func(label string, got *OpenLoopResult, rec map[int32]msgRec, sink []int, err error) {
	t.Helper()
	refRec := map[int32]msgRec{}
	refSink := &sliceSink{}
	refOpts := opts
	refOpts.PerMessage = recordPerMsg(refRec)
	refOpts.Sink = refSink
	ref, refErr := SimulateOpenLoopReference(tmpls, tr.Source(), refOpts)
	slices.Sort(refSink.vals)
	return func(label string, got *OpenLoopResult, rec map[int32]msgRec, sink []int, err error) {
		t.Helper()
		if (refErr == nil) != (err == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("%s: error %v, golden model %v", label, err, refErr)
		}
		if err != nil {
			return
		}
		masked := *got
		masked.SkippedSteps = 0
		if !reflect.DeepEqual(&masked, ref) {
			t.Fatalf("%s: result diverged from the golden model:\nengine    %+v\nreference %+v", label, masked, *ref)
		}
		if !reflect.DeepEqual(rec, refRec) {
			t.Fatalf("%s: per-message records diverged from the golden model", label)
		}
		sorted := slices.Clone(sink)
		slices.Sort(sorted)
		if !slices.Equal(sorted, refSink.vals) {
			t.Fatalf("%s: latency multiset diverged from the golden model", label)
		}
	}
}

// FuzzSimulateOpenLoopSharded holds the open loop at shard counts
// {2, 3, 8} bit-identical to the same loop at one shard, and every
// shard count to the naive reference (openLoopGolden), for random
// route sets × arrival traces × fault schedules in both buffering
// modes: same OpenLoopResult including SkippedSteps, same per-message
// (arrival, done, delivered) records, same latency multiset, same
// error text on the error paths, plus conservation per shard and
// globally via the stats entry point.
func FuzzSimulateOpenLoopSharded(f *testing.F) {
	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{3, 2, 1, 1, 4, 2, 1, 2, 5}, []byte{6, 3, 0, 1, 1, 3, 2, 0, 7, 1, 5, 0, 2}, []byte{})
	f.Add([]byte{5, 1, 3, 2, 1, 3, 2, 1, 3, 2}, []byte{9, 0, 200, 0, 3, 1, 1, 2, 0, 40, 1}, []byte{2, 3, 2, 0, 3, 1, 9})
	f.Add([]byte{2, 2, 9, 9, 4, 2, 9, 9, 4}, []byte{24, 1, 0, 1, 1, 1, 2, 1, 3}, []byte{4, 9, 1, 1, 9, 2, 0, 3, 1, 5, 3, 4, 1})
	f.Add([]byte{7, 6, 0, 1, 2, 3, 4, 5, 8}, []byte{12, 0, 250, 3, 0, 0, 1, 4, 5}, []byte{1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, routeData, arrData, schedData []byte) {
		tmpls := decodeFuzzMessages(routeData)
		tr := decodeFuzzArrivals(arrData, len(tmpls))
		sched := decodeFuzzSchedule(schedData)
		limit := 0
		if len(schedData) > 0 && schedData[0]%3 == 0 {
			limit = 1 + int(schedData[0])
		}
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			for _, opts := range []OpenLoopOpts{
				{Mode: mode},
				{Mode: mode, Faults: sched},
				{Mode: mode, Faults: sched, StepLimit: limit},
			} {
				if opts.StepLimit == 0 && opts.Faults == sched && limit == 0 {
					continue // identical to the plain faults case
				}
				// Golden model: the single-shard engine on this trace.
				wantRec := map[int32]msgRec{}
				wantSink := &sliceSink{}
				wOpts := opts
				wOpts.PerMessage = recordPerMsg(wantRec)
				wOpts.Sink = wantSink
				want, wantErr := SimulateOpenLoop(tmpls, tr.Source(), wOpts)
				slices.Sort(wantSink.vals)
				golden := openLoopGolden(t, tmpls, tr, opts)
				golden(fmt.Sprintf("%v/%+v/shards=1", mode, opts), want, wantRec, wantSink.vals, wantErr)
				for _, shards := range []int{2, 3, 8} {
					gotRec := map[int32]msgRec{}
					gotSink := &sliceSink{}
					gOpts := opts
					gOpts.PerMessage = recordPerMsg(gotRec)
					gOpts.Sink = gotSink
					got, stats, gotErr := SimulateOpenLoopShardedStats(tmpls, tr.Source(), gOpts, shards)
					golden(fmt.Sprintf("%v/%+v/shards=%d", mode, opts, shards), got, gotRec, gotSink.vals, gotErr)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%v/%+v/shards=%d: error mismatch: single-shard %v, sharded %v",
							mode, opts, shards, wantErr, gotErr)
					}
					if wantErr != nil {
						if wantErr.Error() != gotErr.Error() {
							t.Fatalf("%v/%+v/shards=%d: error text: %q vs %q", mode, opts, shards, wantErr, gotErr)
						}
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v/%+v/shards=%d: result diverged:\nsharded      %+v\nsingle-shard %+v",
							mode, opts, shards, got, want)
					}
					if !reflect.DeepEqual(gotRec, wantRec) {
						t.Fatalf("%v/%+v/shards=%d: per-message records diverged", mode, opts, shards)
					}
					slices.Sort(gotSink.vals)
					if !reflect.DeepEqual(gotSink.vals, wantSink.vals) {
						t.Fatalf("%v/%+v/shards=%d: latency sinks diverged", mode, opts, shards)
					}
					sumMoved, sumDropped, sumInj := 0, 0, 0
					for k, st := range stats {
						if st.FlitsMoved+st.DroppedFlits != st.InjectedHops {
							t.Fatalf("%v/%+v/shards=%d shard %d: moved %d + dropped %d != injected %d",
								mode, opts, shards, k, st.FlitsMoved, st.DroppedFlits, st.InjectedHops)
						}
						sumMoved += st.FlitsMoved
						sumDropped += st.DroppedFlits
						sumInj += st.InjectedHops
					}
					if sumMoved != got.FlitsMoved || sumDropped != got.DroppedFlits || sumInj != got.InjectedHops {
						t.Fatalf("%v/%+v/shards=%d: per-shard sums diverge from the global result", mode, opts, shards)
					}
				}
			}
		}
	})
}
