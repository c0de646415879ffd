package selfheal

import (
	"reflect"
	"slices"
	"testing"

	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/netsim"
)

// decodeHealArrivals builds a nondecreasing arrival trace over nb
// bundles from fuzz bytes, mixing bursts, short gaps, and leaps —
// the same shapes the netsim open-loop fuzzers use.
func decodeHealArrivals(data []byte, nb int) *netsim.Trace {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		b := int(data[at])
		at++
		return b
	}
	count := next() % 25
	tr := &netsim.Trace{}
	step := 0
	for i := 0; i < count; i++ {
		switch next() % 8 {
		case 0: // long gap: the engine should leap over it
			step += 20 + next()
		case 1, 2: // same-step burst
		default:
			step += next() % 4
		}
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: step, Tmpl: int32(next() % nb)})
	}
	return tr
}

// decodeHealSchedule builds a bounded schedule over the host's
// directed links from fuzz bytes.
func decodeHealSchedule(data []byte, numLinks int) *faults.Schedule {
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
	events := next() % 9
	for i := 0; i < events; i++ {
		link := next() % numLinks
		from := 1 + next()%48
		if next()%2 == 0 {
			s.FailLink(link, from)
		} else {
			s.FailLinkTransient(link, from, from+1+next()%48)
		}
	}
	return s
}

// tapEvent is one FaultListener callback: a LinkDown when msg is -1.
type tapEvent struct {
	step, link int
	msg        int32
}

// tapListener records the callbacks a session's listener receives and
// forwards them to it.
type tapListener struct {
	netsim.FaultListener
	ev *[]tapEvent
}

func (l tapListener) LinkDown(step, link int, permanent bool) {
	*l.ev = append(*l.ev, tapEvent{step: step, link: link, msg: -1})
	l.FaultListener.LinkDown(step, link, permanent)
}

func (l tapListener) MsgFailed(step int, msg int32, link int) {
	*l.ev = append(*l.ev, tapEvent{step: step, link: link, msg: msg})
	l.FaultListener.MsgFailed(step, msg, link)
}

// FuzzSelfHealOpenLoop holds the self-healing session's determinism
// contract on the Theorem 1 width-3 embedding of Q_4, for random
// arrival traces × fault schedules × policy configurations:
//
//   - golden model: the listener event stream, the Report
//     (SkippedSteps masked), the per-transfer records, and the latency
//     multiset on the engine equal those of the same session on
//     SimulateOpenLoopReference, and so does the error text on the
//     error paths;
//   - shard invariance: the Report, the per-transfer records, and the
//     latency multisets are identical at shard counts {1, 2, 3, 8};
//   - replay: running the same configuration twice is bit-identical;
//   - conservation: the engine moves or drops exactly the injected
//     flit-hops, and on drained (non-timed-out) runs every transfer is
//     delivered or abandoned and the injected piece count decomposes
//     as base pieces + Retries;
//   - IDA never retries.
func FuzzSelfHealOpenLoop(f *testing.F) {
	e, err := cycles.Theorem1(4)
	if err != nil {
		f.Fatal(err)
	}
	numLinks := e.Host.DirectedEdges()
	nb := len(e.Paths)

	f.Add([]byte{}, []byte{}, []byte{})
	f.Add([]byte{9, 3, 0, 4, 1, 5, 6, 2, 7, 3, 1}, []byte{4, 2, 1, 0, 10, 3, 1, 25, 9, 0}, []byte{1, 3, 2, 5})
	f.Add([]byte{14, 0, 200, 3, 0, 0, 1, 4, 5, 2, 2}, []byte{8, 0, 1, 0, 6, 2, 1, 20, 4, 1, 1, 7, 5, 0}, []byte{0, 1, 4, 17})
	f.Add([]byte{20, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, []byte{6, 2, 1, 0, 1, 2, 0, 10, 3, 0}, []byte{1, 0, 0, 200})
	f.Fuzz(func(t *testing.T, arrData, schedData, cfgData []byte) {
		cb := func(i int) int {
			if i < len(cfgData) {
				return int(cfgData[i])
			}
			return 0
		}
		cfg := Config{
			Mode:       netsim.Mode(cb(0) % 2),
			Flits:      1 + cb(1)%6,
			MaxRetries: cb(2) % 4,
			Faults:     decodeHealSchedule(schedData, numLinks),
			StepLimit:  40 + cb(3),
		}
		if cb(0)%4 >= 2 {
			cfg.Strategy = IDA
			cfg.K = 1 + cb(2)%3
		}
		switch cb(4) % 3 {
		case 0:
			cfg.Backoff = FixedBackoff{Steps: cb(5) % 5}
		case 1:
			cfg.Backoff = ExpBackoff{Base: 1 + cb(5)%3, Cap: 16, Jitter: 0.5, Seed: int64(cb(6))}
		}
		if cb(7)%2 == 1 {
			cfg.Deadline = 5 + cb(7)
		}
		tr := decodeHealArrivals(arrData, nb)

		type run struct {
			rep  *Report
			perT map[int32]transferRec
			sink []int
		}
		do := func(shards int) (*run, error) {
			c := cfg
			c.Shards = shards
			perT := map[int32]transferRec{}
			sink := &sliceSink{}
			c.PerTransfer = recordTransfers(perT)
			c.Sink = sink
			rep, err := Send(e, nil, tr, c)
			if err != nil {
				return nil, err
			}
			slices.Sort(sink.vals)
			return &run{rep: rep, perT: perT, sink: sink.vals}, nil
		}

		// The engine and the golden model, each with the session's
		// listener events recorded on the way in.
		var wantEv, refEv []tapEvent
		openLoop = func(tmpls []*netsim.Message, src netsim.ArrivalSource, opts netsim.OpenLoopOpts, shards int) (*netsim.OpenLoopResult, error) {
			opts.Listener = tapListener{opts.Listener, &wantEv}
			return netsim.SimulateOpenLoopSharded(tmpls, src, opts, shards)
		}
		want, wantErr := do(1)
		openLoop = func(tmpls []*netsim.Message, src netsim.ArrivalSource, opts netsim.OpenLoopOpts, _ int) (*netsim.OpenLoopResult, error) {
			opts.Listener = tapListener{opts.Listener, &refEv}
			return netsim.SimulateOpenLoopReference(tmpls, src, opts)
		}
		ref, refErr := do(1)
		openLoop = netsim.SimulateOpenLoopSharded
		if (wantErr == nil) != (refErr == nil) || wantErr != nil && wantErr.Error() != refErr.Error() {
			t.Fatalf("error %v, golden model %v", wantErr, refErr)
		}
		if !reflect.DeepEqual(wantEv, refEv) {
			t.Fatalf("listener events diverged from the golden model:\n%v\nreference\n%v", wantEv, refEv)
		}
		if wantErr == nil {
			masked := *want.rep
			masked.Engine.SkippedSteps = 0 // the reference never leaps
			if !reflect.DeepEqual(&masked, ref.rep) {
				t.Fatalf("report diverged from the golden model:\n%+v\nreference\n%+v", masked, *ref.rep)
			}
			if !reflect.DeepEqual(want.perT, ref.perT) {
				t.Fatalf("per-transfer records diverged from the golden model")
			}
			if !reflect.DeepEqual(want.sink, ref.sink) {
				t.Fatalf("latency multiset diverged from the golden model: %v vs %v", want.sink, ref.sink)
			}
		}
		for _, shards := range []int{1, 2, 3, 8} {
			got, err := do(shards)
			if (wantErr == nil) != (err == nil) {
				t.Fatalf("shards=%d: error mismatch: %v vs %v", shards, err, wantErr)
			}
			if wantErr != nil {
				if err.Error() != wantErr.Error() {
					t.Fatalf("shards=%d: error text %q vs %q", shards, err, wantErr)
				}
				continue
			}
			if !reflect.DeepEqual(got.rep, want.rep) {
				t.Fatalf("shards=%d: report diverged:\n%+v\nvs shards=1\n%+v", shards, *got.rep, *want.rep)
			}
			if !reflect.DeepEqual(got.perT, want.perT) {
				t.Fatalf("shards=%d: per-transfer records diverged", shards)
			}
			if !reflect.DeepEqual(got.sink, want.sink) {
				t.Fatalf("shards=%d: latency multisets diverged: %v vs %v", shards, got.sink, want.sink)
			}
		}
		if wantErr != nil {
			return
		}

		rep := want.rep
		en := &rep.Engine
		if en.FlitsMoved+en.DroppedFlits != en.InjectedHops {
			t.Fatalf("conservation: moved %d + dropped %d != injected hops %d", en.FlitsMoved, en.DroppedFlits, en.InjectedHops)
		}
		if en.DeliveredMsgs+en.FailedMsgs != en.Injected {
			t.Fatalf("pieces: delivered %d + failed %d != injected %d", en.DeliveredMsgs, en.FailedMsgs, en.Injected)
		}
		if rep.Transfers > len(tr.Arrivals) {
			t.Fatalf("transfers %d > arrivals %d", rep.Transfers, len(tr.Arrivals))
		}
		if cfg.Strategy == IDA && rep.Retries != 0 {
			t.Fatalf("IDA retried: %+v", rep)
		}
		if rep.Reroutes > rep.Retries {
			t.Fatalf("reroutes %d > retries %d", rep.Reroutes, rep.Retries)
		}
		if !en.TimedOut {
			if rep.Transfers != len(tr.Arrivals) {
				t.Fatalf("drained run: transfers %d, arrivals %d", rep.Transfers, len(tr.Arrivals))
			}
			if rep.Delivered+rep.Abandoned != rep.Transfers {
				t.Fatalf("drained run: delivered %d + abandoned %d != transfers %d", rep.Delivered, rep.Abandoned, rep.Transfers)
			}
			base := rep.Transfers
			if cfg.Strategy == IDA {
				base = 0
				for _, a := range tr.Arrivals {
					base += len(e.Paths[a.Tmpl])
				}
			}
			if en.Injected != base+rep.Retries {
				t.Fatalf("drained run: injected %d != base pieces %d + retries %d", en.Injected, base, rep.Retries)
			}
		}
	})
}
