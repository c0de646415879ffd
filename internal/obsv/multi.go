package obsv

import "multipath/internal/netsim"

// multi fans every probe event out to several probes in order.
type multi []netsim.Probe

// Multi combines probes into one (e.g. a Recorder plus a TraceWriter).
// Nil entries are dropped; with zero live probes it returns nil (so the
// engine's nil-check keeps the hot path dark), and with one it returns
// that probe unwrapped.
func Multi(probes ...netsim.Probe) netsim.Probe {
	live := make(multi, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

func (m multi) BeginRun(info netsim.RunInfo) {
	for _, p := range m {
		p.BeginRun(info)
	}
}

func (m multi) StepEnd(step int, queueLen []int, active []int32) {
	for _, p := range m {
		p.StepEnd(step, queueLen, active)
	}
}

func (m multi) FlitMoved(step int, msg, link int32) {
	for _, p := range m {
		p.FlitMoved(step, msg, link)
	}
}

func (m multi) FlitDelivered(step int, msg int32) {
	for _, p := range m {
		p.FlitDelivered(step, msg)
	}
}

func (m multi) FlitsDropped(step int, msg int32, flits int) {
	for _, p := range m {
		p.FlitsDropped(step, msg, flits)
	}
}

func (m multi) MsgDone(step int, msg int32, delivered bool) {
	for _, p := range m {
		p.MsgDone(step, msg, delivered)
	}
}
