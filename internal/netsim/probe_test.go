package netsim

import (
	"reflect"
	"testing"

	"multipath/internal/faults"
)

// recordingProbe exercises every Probe hook and cross-checks the event
// stream's internal consistency against the run's Result.
type recordingProbe struct {
	begun     int
	info      RunInfo
	linkExt   []int
	steps     int
	lastStep  int
	maxQueue  int
	moves     int
	delivers  int
	dropFlits int
	doneOK    int
	doneFail  int
}

func (r *recordingProbe) BeginRun(info RunInfo) {
	r.begun++
	r.info = info
	r.linkExt = append(r.linkExt[:0], info.LinkExt...)
}

func (r *recordingProbe) StepEnd(step int, queueLen []int) {
	r.steps++
	if step != r.lastStep+1 {
		panic("StepEnd steps not consecutive")
	}
	r.lastStep = step
	if len(queueLen) != r.info.Links {
		panic("StepEnd queue vector length != RunInfo.Links")
	}
	for _, q := range queueLen {
		if q > r.maxQueue {
			r.maxQueue = q
		}
	}
}

func (r *recordingProbe) FlitMoved(step int, msg, link int32) {
	r.moves++
	if int(link) >= r.info.Links {
		panic("FlitMoved link out of range")
	}
}

func (r *recordingProbe) FlitDelivered(step int, msg int32) { r.delivers++ }

func (r *recordingProbe) FlitsDropped(step int, msg int32, flits int) { r.dropFlits += flits }

func (r *recordingProbe) MsgDone(step int, msg int32, delivered bool) {
	if delivered {
		r.doneOK++
	} else {
		r.doneFail++
	}
}

// checkAgainst asserts the stream-derived aggregates match the run's
// end-of-run Result. checkQueue applies only to the buffered paths,
// where the StepEnd queue peak is a lower bound on MaxLinkQueue (the
// peak is sampled at enqueue time, and a 1-flit message can cross and
// dequeue within the same step before StepEnd); the wormhole engine
// samples its wait lists on acquire attempts, which StepEnd's
// end-of-step snapshot can legitimately exceed.
func (r *recordingProbe) checkAgainst(t *testing.T, res *Result, steps int, checkQueue bool) {
	t.Helper()
	if r.begun != 1 {
		t.Errorf("BeginRun called %d times", r.begun)
	}
	if r.steps != steps {
		t.Errorf("StepEnd called %d times, run took %d steps", r.steps, steps)
	}
	if r.moves != res.FlitsMoved {
		t.Errorf("FlitMoved %d events, FlitsMoved %d", r.moves, res.FlitsMoved)
	}
	if r.doneOK != res.DeliveredMsgs || r.doneFail != res.FailedMsgs {
		t.Errorf("MsgDone ok=%d fail=%d, Result %d/%d",
			r.doneOK, r.doneFail, res.DeliveredMsgs, res.FailedMsgs)
	}
	if r.dropFlits != res.DroppedFlits {
		t.Errorf("FlitsDropped %d flit-hops, DroppedFlits %d", r.dropFlits, res.DroppedFlits)
	}
	if checkQueue && r.maxQueue > res.MaxLinkQueue {
		t.Errorf("StepEnd peak queue %d exceeds MaxLinkQueue %d", r.maxQueue, res.MaxLinkQueue)
	}
}

func probeWorkloads() [][]*Message {
	return [][]*Message{
		nil,
		{{Route: []int32{1}, Flits: 2}, {Route: []int32{2, 1}, Flits: 1}, {Route: []int32{3, 1}, Flits: 1}},
		{{Route: nil, Flits: 1}, {Route: []int32{7, 8, 9}, Flits: 4}},
		{{Route: []int32{0, 1, 2, 3}, Flits: 3}, {Route: []int32{3, 2, 1, 0}, Flits: 3}},
		{{Route: []int32{5, 5, 5}, Flits: 2}, {Route: []int32{5}, Flits: 6}},
	}
}

func TestSimulateProbedMatchesBare(t *testing.T) {
	for wi, msgs := range probeWorkloads() {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			bare, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatalf("workload %d %v: %v", wi, mode, err)
			}
			rp := &recordingProbe{}
			probed, err := SimulateProbed(msgs, mode, rp)
			if err != nil {
				t.Fatalf("workload %d %v probed: %v", wi, mode, err)
			}
			if !reflect.DeepEqual(bare, probed) {
				t.Errorf("workload %d %v: probe changed result\nbare   %+v\nprobed %+v",
					wi, mode, bare, probed)
			}
			rp.checkAgainst(t, probed, probed.Steps, true)
			// The external id table round-trips the route ids.
			for _, m := range msgs {
				for _, id := range m.Route {
					found := false
					for _, e := range rp.linkExt {
						if e == int(id) {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("workload %d: external id %d missing from LinkExt %v",
							wi, id, rp.linkExt)
					}
				}
			}
		}
	}
}

func TestSimulateWormholeProbed(t *testing.T) {
	for wi, msgs := range probeWorkloads() {
		bare, bErr := SimulateWormhole(msgs)
		rp := &recordingProbe{}
		probed, pErr := SimulateWormholeProbed(msgs, rp)
		if (bErr == nil) != (pErr == nil) {
			t.Fatalf("workload %d: error mismatch %v vs %v", wi, bErr, pErr)
		}
		if bErr != nil {
			continue
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("workload %d: probe changed wormhole result\nbare   %+v\nprobed %+v",
				wi, bare, probed)
		}
		if !rp.info.Wormhole {
			t.Errorf("workload %d: RunInfo.Wormhole not set", wi)
		}
		rp.checkAgainst(t, &probed.Result, probed.Steps, false)
	}
}

func TestSimulateFaultsProbed(t *testing.T) {
	msgs := []*Message{
		{Route: []int32{1}, Flits: 2},
		{Route: []int32{2, 1}, Flits: 1},
		{Route: []int32{3, 4}, Flits: 2},
	}
	sched := faults.NewSchedule().
		FailLinkTransient(2, 1, 3). // delays message 1
		FailLink(4, 2)              // dooms message 2 mid-route
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		bare, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched})
		if err != nil {
			t.Fatal(err)
		}
		rp := &recordingProbe{}
		probed, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched, Probe: rp})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("%v: probe changed fault result\nbare   %+v\nprobed %+v", mode, bare, probed)
		}
		if probed.FailedMsgs != 1 {
			t.Fatalf("%v: schedule did not bite: %+v", mode, probed)
		}
		rp.checkAgainst(t, &probed.Result, probed.Steps, false)
	}
}

// FuzzSimulateProbed replays the fault fuzzer's corpus shape and
// asserts the package-level guarantee: attaching a probe never changes
// Result or FaultResult, on the fault-free, fault, and wormhole paths.
func FuzzSimulateProbed(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3, 2, 1, 1, 4, 2, 1, 2, 5}, []byte{2, 1, 1, 0, 5, 9, 1})
	f.Add([]byte{7, 6, 0, 1, 2, 3, 4, 5, 8}, []byte{6, 0, 1, 0, 1, 1, 1, 2, 2, 0, 3, 3, 1, 9})
	f.Add([]byte{5, 1, 3, 2, 1, 3, 2, 1, 3, 2}, []byte{1, 3, 1, 0})
	f.Fuzz(func(t *testing.T, mdata, sdata []byte) {
		msgs := decodeFuzzMessages(mdata)
		sched := decodeFuzzSchedule(sdata)
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			bare, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatal(err)
			}
			rp := &recordingProbe{}
			probed, err := SimulateProbed(msgs, mode, rp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bare, probed) {
				t.Fatalf("%v: probe changed result: %+v vs %+v", mode, bare, probed)
			}
			rp.checkAgainst(t, probed, probed.Steps, true)

			bareF, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched})
			if err != nil {
				t.Fatal(err)
			}
			rpf := &recordingProbe{}
			probedF, err := SimulateFaults(msgs, mode, FaultOpts{Faults: sched, Probe: rpf})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bareF, probedF) {
				t.Fatalf("%v: probe changed fault result: %+v vs %+v", mode, bareF, probedF)
			}
			rpf.checkAgainst(t, &probedF.Result, probedF.Steps, true)
		}
		bareW, bErr := SimulateWormhole(msgs)
		rpw := &recordingProbe{}
		probedW, pErr := SimulateWormholeProbed(msgs, rpw)
		if (bErr == nil) != (pErr == nil) {
			t.Fatalf("wormhole error mismatch: %v vs %v", bErr, pErr)
		}
		if bErr == nil {
			if !reflect.DeepEqual(bareW, probedW) {
				t.Fatalf("probe changed wormhole result: %+v vs %+v", bareW, probedW)
			}
			rpw.checkAgainst(t, &probedW.Result, probedW.Steps, false)
		}
	})
}
