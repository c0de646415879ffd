package obsv

import (
	"bufio"
	"fmt"
	"io"

	"multipath/internal/netsim"
)

// TraceWriter is a netsim.Probe that exports the event stream as JSONL
// (one JSON object per line), suitable for offline analysis with jq or
// a dataframe loader. Event shapes:
//
//	{"ev":"begin","run":1,"msgs":24,"links":96,"mode":"cut-through","wormhole":false}
//	{"ev":"move","run":1,"step":3,"msg":7,"link":41}     // one per flit crossing (external link id)
//	{"ev":"deliver","run":1,"step":5,"msg":7}            // flit reached its destination
//	{"ev":"drop","run":1,"step":9,"msg":2,"flits":12}    // failed message's dropped flit-hops
//	{"ev":"done","run":1,"step":5,"msg":7,"ok":true}     // message completion
//	{"ev":"step","run":1,"step":3,"maxq":4,"queued":11}  // per-step queue digest
//
// Run numbers increment per BeginRun so multi-round transports stay
// separable. Per-flit move events dominate trace size; disable them
// with Moves=false when only the step/latency shape is needed.
//
// Writes go through an internal buffer; call Flush before reading the
// destination. The first write error is retained and reported by both
// Flush and Err, and suppresses subsequent writes.
type TraceWriter struct {
	// Moves controls per-flit move events (default true).
	Moves bool

	w      *bufio.Writer
	run    int
	extTab []int // current run's dense→external link id table
	err    error
}

// NewTraceWriter returns a TraceWriter emitting to w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{Moves: true, w: bufio.NewWriter(w)}
}

func (t *TraceWriter) emit(format string, args ...any) {
	if t.err != nil {
		return
	}
	if _, err := fmt.Fprintf(t.w, format, args...); err != nil {
		t.err = err
	}
}

// BeginRun implements netsim.Probe.
func (t *TraceWriter) BeginRun(info netsim.RunInfo) {
	t.run++
	t.extTab = append(t.extTab[:0], info.LinkExt...)
	t.emit("{\"ev\":\"begin\",\"run\":%d,\"msgs\":%d,\"links\":%d,\"mode\":%q,\"wormhole\":%t}\n",
		t.run, info.Messages, info.Links, info.Mode.String(), info.Wormhole)
}

// StepEnd implements netsim.Probe: a per-step digest (peak and count of
// non-empty queues), not the full queue vector. Every non-empty queue
// is on an active link, so the digest reads the active links only.
func (t *TraceWriter) StepEnd(step int, queueLen []int, active []int32) {
	maxq, queued := 0, 0
	for _, l := range active {
		q := queueLen[l]
		if q > 0 {
			queued++
		}
		if q > maxq {
			maxq = q
		}
	}
	t.emit("{\"ev\":\"step\",\"run\":%d,\"step\":%d,\"maxq\":%d,\"queued\":%d}\n",
		t.run, step, maxq, queued)
}

// FlitMoved implements netsim.Probe. The link is reported by its
// external id (the id space of Message.Route).
func (t *TraceWriter) FlitMoved(step int, msg, link int32) {
	if !t.Moves {
		return
	}
	t.emit("{\"ev\":\"move\",\"run\":%d,\"step\":%d,\"msg\":%d,\"link\":%d}\n",
		t.run, step, msg, t.ext(link))
}

// FlitDelivered implements netsim.Probe.
func (t *TraceWriter) FlitDelivered(step int, msg int32) {
	if !t.Moves {
		return
	}
	t.emit("{\"ev\":\"deliver\",\"run\":%d,\"step\":%d,\"msg\":%d}\n", t.run, step, msg)
}

// FlitsDropped implements netsim.Probe.
func (t *TraceWriter) FlitsDropped(step int, msg int32, flits int) {
	t.emit("{\"ev\":\"drop\",\"run\":%d,\"step\":%d,\"msg\":%d,\"flits\":%d}\n",
		t.run, step, msg, flits)
}

// MsgDone implements netsim.Probe.
func (t *TraceWriter) MsgDone(step int, msg int32, delivered bool) {
	t.emit("{\"ev\":\"done\",\"run\":%d,\"step\":%d,\"msg\":%d,\"ok\":%t}\n",
		t.run, step, msg, delivered)
}

// Flush drains the buffer and returns the first error seen.
func (t *TraceWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// Err returns the first write error, if any.
func (t *TraceWriter) Err() error { return t.err }

// ext maps a dense link id through the current run's table.
func (t *TraceWriter) ext(link int32) int {
	if int(link) < len(t.extTab) {
		return t.extTab[link]
	}
	return int(link)
}
