package obsv

import (
	"fmt"
	"reflect"
	"testing"

	"multipath/internal/netsim"
)

// refRecorder drives a Recorder through the per-link BeginRun and
// StepEnd that preceded the bulk idle-link path, kept here as the
// golden model for it: every link is sampled by its own Observe call
// and the LinkQueues slices grow on demand.
type refRecorder struct{ *Recorder }

func (r refRecorder) BeginRun(info netsim.RunInfo) {
	r.Runs++
	r.ext = append(r.ext[:0], info.LinkExt...)
	if cap(r.moved) < info.Links {
		r.moved = make([]int, info.Links)
	}
	r.moved = r.moved[:info.Links]
	for i := range r.moved {
		r.moved[i] = 0
	}
}

func (r refRecorder) StepEnd(step int, queueLen []int) {
	r.Steps++
	busy := 0
	for l, q := range queueLen {
		r.QueueDepth.Observe(q)
		m := r.moved[l]
		if m > 0 {
			busy++
		}
		if r.util != nil {
			s := r.util[r.ext[l]]
			if s == nil {
				s = NewSeries(r.opts.UtilCap)
				r.util[r.ext[l]] = s
			}
			s.Add(float64(m))
		}
		if r.opts.LinkQueues {
			id := r.ext[l]
			if id >= len(r.lqSum) {
				r.lqSum = append(r.lqSum, make([]uint64, id+1-len(r.lqSum))...)
				r.lqN = append(r.lqN, make([]uint64, id+1-len(r.lqN))...)
				r.lqMax = append(r.lqMax, make([]int, id+1-len(r.lqMax))...)
			}
			r.lqSum[id] += uint64(q)
			r.lqN[id]++
			if q > r.lqMax[id] {
				r.lqMax[id] = q
			}
		}
		r.moved[l] = 0
	}
	if len(queueLen) > 0 {
		r.BusyFraction.Add(float64(busy) / float64(len(queueLen)))
	}
}

// synthStep is one simulated step fed straight to a probe: the dense
// links that moved a flit (a link may repeat) and the end-of-step
// queue vector.
type synthStep struct {
	moves []int32
	qlen  []int
}

// synthRun is one run of synthetic steps over the given external ids.
type synthRun struct {
	ext   []int
	steps []synthStep
}

// stepEndScenarios covers the cases the bulk path distinguishes: all
// links idle, links that moved a flit with an empty queue, queued links
// that moved nothing, and depths beyond the 4 queue buckets the tests
// use. The second run of "mixed" reaches a larger external id, so the
// per-link accumulators grow between runs.
func stepEndScenarios() map[string][]synthRun {
	return map[string][]synthRun{
		"all-idle": {{ext: []int{3, 0, 5}, steps: []synthStep{
			{qlen: []int{0, 0, 0}},
			{qlen: []int{0, 0, 0}},
		}}},
		"moved-empty-queue": {{ext: []int{2, 6, 1, 4}, steps: []synthStep{
			{moves: []int32{0, 2, 2}, qlen: []int{0, 0, 0, 0}},
			{moves: []int32{3}, qlen: []int{0, 0, 0, 0}},
		}}},
		"queued-not-moved": {{ext: []int{7, 1}, steps: []synthStep{
			{qlen: []int{2, 0}},
			{qlen: []int{1, 3}},
		}}},
		"beyond-buckets": {{ext: []int{0, 8, 2}, steps: []synthStep{
			{moves: []int32{1}, qlen: []int{9, 4, 0}},
			{qlen: []int{0, 17, 5}},
		}}},
		"mixed": {
			{ext: []int{4, 9, 1, 6}, steps: []synthStep{
				{moves: []int32{0}, qlen: []int{0, 2, 0, 0}},
				{moves: []int32{1, 1}, qlen: []int{3, 0, 0, 6}},
				{qlen: []int{0, 0, 0, 0}},
			}},
			{ext: []int{11, 4, 20}, steps: []synthStep{
				{moves: []int32{2}, qlen: []int{1, 0, 0}},
				{qlen: []int{0, 0, 5}},
			}},
		},
	}
}

// drive feeds the runs to p.
func drive(p netsim.Probe, runs []synthRun) {
	for _, run := range runs {
		p.BeginRun(netsim.RunInfo{Messages: 1, Links: len(run.ext), LinkExt: run.ext})
		for s, st := range run.steps {
			for _, l := range st.moves {
				p.FlitMoved(s+1, 0, l)
			}
			p.StepEnd(s+1, st.qlen)
		}
	}
}

// recorderView is everything a Recorder exposes, gathered for one
// DeepEqual: the exported fields, the summaries, the per-link queue
// stats by lookup and by iteration, and the utilization series.
type recorderView struct {
	FlitLatency, MsgLatency, QueueDepth Histogram
	BusyFraction                        []float64
	BusyLen                             uint64
	BusyStride                          int
	Runs, Steps, Delivered, Failed      int
	Moved, Dropped                      uint64
	Summaries                           [3]Summary
	Buckets                             []Bucket
	Lookup                              map[int]LinkQueueStat
	Each                                []string
	Util                                map[int][]float64
}

func viewOf(r *Recorder) recorderView {
	v := recorderView{
		FlitLatency: *r.FlitLatency, MsgLatency: *r.MsgLatency, QueueDepth: *r.QueueDepth,
		BusyFraction: r.BusyFraction.Samples(), BusyLen: r.BusyFraction.Len(),
		BusyStride: r.BusyFraction.Stride(),
		Runs:       r.Runs, Steps: r.Steps, Delivered: r.Delivered, Failed: r.Failed,
		Moved: r.Moved, Dropped: r.Dropped,
		Summaries: [3]Summary{r.FlitLatency.Summarize(), r.MsgLatency.Summarize(), r.QueueDepth.Summarize()},
		Buckets:   r.QueueDepth.NonEmptyBuckets(),
		Lookup:    map[int]LinkQueueStat{},
		Util:      r.LinkUtilization(),
	}
	for id := -2; id < 160; id++ {
		if s, ok := r.LinkQueueDepth(id); ok {
			v.Lookup[id] = s
		}
	}
	r.EachLinkQueueDepth(func(link int, s LinkQueueStat) {
		v.Each = append(v.Each, fmt.Sprintf("%d:%+v", link, s))
	})
	return v
}

// TestRecorderStepEndMatchesPerLink pins the bulk idle-link StepEnd to
// the per-link loop it replaced, on synthetic steps under LinkQueues
// and LinkUtil on and off, and once with a zero-bucket QueueDepth
// (every sample overflows): every exported field, summary, per-link
// queue stat and utilization series must agree.
func TestRecorderStepEndMatchesPerLink(t *testing.T) {
	type variant struct {
		name      string
		opts      RecorderOpts
		zeroQueue bool
	}
	var variants []variant
	for _, lq := range []bool{false, true} {
		for _, lu := range []bool{false, true} {
			variants = append(variants, variant{
				name: fmt.Sprintf("queues=%v/util=%v", lq, lu),
				opts: RecorderOpts{QueueBuckets: 4, LinkQueues: lq, LinkUtil: lu, UtilCap: 4},
			})
		}
	}
	variants = append(variants, variant{
		name:      "zero-bucket-queue-depth",
		opts:      RecorderOpts{QueueBuckets: 4, LinkQueues: true},
		zeroQueue: true,
	})
	scenarios := stepEndScenarios()
	for _, v := range variants {
		newRec := func() *Recorder {
			r := NewRecorderOpts(v.opts)
			if v.zeroQueue {
				r.QueueDepth = &Histogram{Width: 1}
			}
			return r
		}
		for name, runs := range scenarios {
			got, want := newRec(), newRec()
			drive(got, runs)
			drive(refRecorder{want}, runs)
			if g, w := viewOf(got), viewOf(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s/%s: bulk StepEnd diverged\n got %+v\nwant %+v", v.name, name, g, w)
			}
		}
	}
}

// TestHistogramObserveZeros pins the bulk zero sample to n calls of
// Observe(0), with buckets and with an empty bucket slice, where every
// zero lands in the overflow count.
func TestHistogramObserveZeros(t *testing.T) {
	for _, buckets := range []int{0, 1, 3} {
		for _, n := range []int{0, 1, 5} {
			got := &Histogram{Width: 2, Counts: make([]uint64, buckets)}
			want := &Histogram{Width: 2, Counts: make([]uint64, buckets)}
			got.Observe(3)
			want.Observe(3)
			got.observeZeros(n)
			for i := 0; i < n; i++ {
				want.Observe(0)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("buckets=%d n=%d: %+v != %+v", buckets, n, got, want)
			}
		}
	}
}
