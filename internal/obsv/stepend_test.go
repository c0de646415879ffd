package obsv

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

// refRecorder drives a Recorder through the per-link BeginRun and
// StepEnd that preceded the bulk idle-link path, kept here as the
// golden model for it: every link is sampled by its own Observe call,
// whatever StepEnd's active list says, the LinkQueues slices grow on
// demand, and each link's sample count grows by one per step. Links
// with a negative external id are not accumulated, as RecorderOpts
// .LinkQueues documents.
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

func (r refRecorder) StepEnd(step int, queueLen []int, _ []int32) {
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
		if id := r.ext[l]; r.opts.LinkQueues && id >= 0 {
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
// links that moved a flit (a link may repeat), the end-of-step queue
// vector, idle links to list as active all the same (the contract
// allows them), and whether to read the per-link queue stats after
// the step.
type synthStep struct {
	moves []int32
	qlen  []int
	extra []int32
	query bool
}

// synthRun is one run of synthetic steps over the given external ids;
// reset and query, when set, Reset the Recorder or read its per-link
// queue stats before the run begins.
type synthRun struct {
	ext   []int
	steps []synthStep
	reset bool
	query bool
}

// stepEndScenarios covers the cases the active-link path
// distinguishes: all links idle, links that moved a flit with an empty
// queue, queued links that moved nothing, idle links listed as active,
// and depths beyond the 4 queue buckets the tests use. The second run
// of "mixed" reaches a larger external id, so the per-link
// accumulators grow between runs. The rest pin the per-run LinkQueues
// count: Reset between runs, as routing.Run does between windows;
// per-link reads between two runs and after a run's first steps; and
// a second run over a different link set with negative ids.
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
		"listed-idle": {{ext: []int{5, 2, 8}, steps: []synthStep{
			{moves: []int32{1}, qlen: []int{0, 0, 0}, extra: []int32{0, 2}},
			{qlen: []int{0, 3, 0}, extra: []int32{2}},
		}}},
		"reset-between-runs": {
			{ext: []int{4, 9, 1}, steps: []synthStep{
				{moves: []int32{0}, qlen: []int{2, 0, 1}},
				{qlen: []int{1, 0, 0}},
			}},
			{ext: []int{9, 3}, reset: true, steps: []synthStep{
				{moves: []int32{1}, qlen: []int{0, 4}},
				{qlen: []int{0, 0}},
			}},
			{ext: []int{3, 12, 4}, steps: []synthStep{
				{qlen: []int{1, 0, 0}},
			}},
		},
		"query-between-and-within-runs": {
			{ext: []int{6, 2, 7}, steps: []synthStep{
				{moves: []int32{2}, qlen: []int{0, 3, 0}, query: true},
				{qlen: []int{1, 0, 0}},
				{qlen: []int{0, 0, 0}, query: true},
			}},
			{ext: []int{2, 10}, query: true, steps: []synthStep{
				{qlen: []int{2, 0}, query: true},
				{moves: []int32{0, 1}, qlen: []int{0, 1}},
			}},
		},
		"negative-ids": {
			{ext: []int{3, 0, 5}, steps: []synthStep{
				{moves: []int32{0}, qlen: []int{0, 2, 0}},
				{qlen: []int{1, 0, 0}, query: true},
			}},
			{ext: []int{-4, 5, -1, 7}, query: true, steps: []synthStep{
				{moves: []int32{0}, qlen: []int{3, 0, 1, 0}},
				{moves: []int32{2}, qlen: []int{0, 2, 0, 1}, query: true},
				{qlen: []int{0, 0, 0, 0}},
			}},
		},
	}
}

// drive feeds the runs to r (a Recorder, or a refRecorder around one)
// and returns what each requested read of rec's per-link queue stats
// saw. A read iterates first and then looks up, while viewOf looks up
// first, so each of the two reads is the first after some steps. Each
// step's active list holds, in descending order, every link that moved
// a flit or ends with a queue, plus the step's extra idle links.
func drive(r netsim.Probe, rec *Recorder, runs []synthRun) []string {
	var reads []string
	read := func() {
		rec.EachLinkQueueDepth(func(link int, s LinkQueueStat) {
			reads = append(reads, fmt.Sprintf("%d:%+v", link, s))
		})
		reads = append(reads, fmt.Sprint(viewOf(rec).Lookup))
	}
	for _, run := range runs {
		if run.reset {
			rec.Reset()
		}
		if run.query {
			read()
		}
		r.BeginRun(netsim.RunInfo{Messages: 1, Links: len(run.ext), LinkExt: run.ext})
		for s, st := range run.steps {
			listed := make([]bool, len(st.qlen))
			for _, l := range st.moves {
				r.FlitMoved(s+1, 0, l)
				listed[l] = true
			}
			for _, l := range st.extra {
				listed[l] = true
			}
			var active []int32
			for l := len(st.qlen) - 1; l >= 0; l-- {
				if listed[l] || st.qlen[l] > 0 {
					active = append(active, int32(l))
				}
			}
			r.StepEnd(s+1, st.qlen, active)
			if st.query {
				read()
			}
		}
	}
	return reads
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

// TestRecorderStepEndMatchesPerLink pins the active-link StepEnd, on
// its list and its scan path (denseDivs), to the per-link loop it
// replaced, on synthetic steps under LinkQueues and LinkUtil on and
// off, and once with a zero-bucket QueueDepth (every sample
// overflows): every exported field, summary, per-link queue stat and
// utilization series must agree, and so must every per-link read a
// scenario makes between or within runs.
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
	defer func(d int) { denseDiv = d }(denseDiv)
	scenarios := stepEndScenarios()
	for _, div := range denseDivs {
		denseDiv = div
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
				gotReads := drive(got, got, runs)
				wantReads := drive(refRecorder{want}, want, runs)
				if !reflect.DeepEqual(gotReads, wantReads) {
					t.Fatalf("denseDiv=%d/%s/%s: per-link reads diverged\n got %v\nwant %v", div, v.name, name, gotReads, wantReads)
				}
				if g, w := viewOf(got), viewOf(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("denseDiv=%d/%s/%s: StepEnd diverged\n got %+v\nwant %+v", div, v.name, name, g, w)
				}
			}
		}
	}
}

// denseDivs forces each StepEnd path in turn: 0 always visits the
// active list, 1<<30 scans whenever a link is active, and the default
// picks by occupancy.
var denseDivs = []int{0, denseDiv, 1 << 30}

// retrySource is a reacting open-loop source: an ArrivalSource and
// FaultListener in one that replays base and answers each link-blamed
// MsgFailed, at most limit times, with one arrival of the next
// template at the following step. Like selfheal's session it merges
// the two streams in step order and clamps a retry forward to its
// last emission.
type retrySource struct {
	base   []netsim.Arrival
	retry  []netsim.Arrival
	last   int
	limit  int
	ntmpl  int32
	tmplOf []int32 // message id → template
}

func (s *retrySource) Next() (netsim.Arrival, bool) {
	var a netsim.Arrival
	switch {
	case len(s.base) > 0 && (len(s.retry) == 0 || s.base[0].Step <= max(s.retry[0].Step, s.last)):
		a, s.base = s.base[0], s.base[1:]
	case len(s.retry) > 0:
		a, s.retry = s.retry[0], s.retry[1:]
		a.Step = max(a.Step, s.last)
	default:
		return a, false
	}
	s.last = a.Step
	s.tmplOf = append(s.tmplOf, a.Tmpl)
	return a, true
}

func (s *retrySource) LinkDown(step, link int, permanent bool) {}

func (s *retrySource) MsgFailed(step int, msg int32, link int) {
	if link < 0 || s.limit == 0 {
		return
	}
	s.limit--
	s.retry = append(s.retry, netsim.Arrival{Step: step + 1, Tmpl: (s.tmplOf[msg] + 1) % s.ntmpl})
}

// TestRecorderMatchesPerLinkOnEngines pins the active-link StepEnd to
// the per-link golden model on the engines' own StepEnd calls: closed,
// fault and open-loop runs with a reacting listener at 1, 2 and 3
// shards, and wormhole runs, each recorded twice into one Recorder and
// into one refRecorder, under LinkQueues and LinkUtil each on and off
// and on each StepEnd path (denseDivs). Every field viewOf gathers
// must agree.
func TestRecorderMatchesPerLinkOnEngines(t *testing.T) {
	q := hypercube.New(4)
	rng := rand.New(rand.NewSource(11))
	msgs := netsim.PermutationMessages(q, netsim.RandomPermutation(rng, q.Nodes()), 3)
	var long []*netsim.Message
	for _, m := range msgs {
		if len(m.Route) >= 3 {
			long = append(long, m)
		}
	}
	sched := faults.NewSchedule().
		FailLink(int(long[0].Route[1]), 2).
		FailLinkTransient(int(long[1].Route[0]), 1, 4).
		FailLink(int(long[2].Route[2]), 5)
	var base []netsim.Arrival
	for i := range 2 * len(msgs) {
		base = append(base, netsim.Arrival{Step: (i / 5) * 3, Tmpl: int32(i % len(msgs))})
	}
	base = append(base, netsim.Arrival{Step: 200, Tmpl: 0}) // after a leap

	runs := map[string]func(netsim.Probe) error{
		"wormhole": func(p netsim.Probe) error {
			_, err := netsim.SimulateWormholeProbed(msgs, p)
			return err
		},
	}
	for _, mode := range []netsim.Mode{netsim.StoreAndForward, netsim.CutThrough} {
		for _, shards := range []int{1, 2, 3} {
			runs[fmt.Sprintf("closed/%v/shards=%d", mode, shards)] = func(p netsim.Probe) error {
				_, err := netsim.SimulateShardedProbed(msgs, mode, shards, p)
				return err
			}
			runs[fmt.Sprintf("faults/%v/shards=%d", mode, shards)] = func(p netsim.Probe) error {
				_, err := netsim.SimulateFaultsSharded(msgs, mode, netsim.FaultOpts{Faults: sched, Probe: p}, shards)
				return err
			}
			runs[fmt.Sprintf("open-listener/%v/shards=%d", mode, shards)] = func(p netsim.Probe) error {
				src := &retrySource{base: base, limit: 8, ntmpl: int32(len(msgs))}
				opts := netsim.OpenLoopOpts{Mode: mode, Faults: sched, Probe: p, Listener: src}
				res, err := netsim.SimulateOpenLoopSharded(msgs, src, opts, shards)
				if err == nil && res.FailedMsgs == 0 {
					err = fmt.Errorf("the schedule failed no message")
				}
				return err
			}
		}
	}
	defer func(d int) { denseDiv = d }(denseDiv)
	for _, div := range denseDivs {
		denseDiv = div
		for _, lq := range []bool{false, true} {
			for _, lu := range []bool{false, true} {
				opts := RecorderOpts{QueueBuckets: 4, LinkQueues: lq, LinkUtil: lu, UtilCap: 8}
				for name, run := range runs {
					got, want := NewRecorderOpts(opts), NewRecorderOpts(opts)
					for range 2 {
						if err := run(got); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := run(refRecorder{want}); err != nil {
							t.Fatalf("%s (reference): %v", name, err)
						}
					}
					if g, w := viewOf(got), viewOf(want); !reflect.DeepEqual(g, w) {
						t.Fatalf("denseDiv=%d/queues=%v/util=%v/%s: StepEnd diverged\n got %+v\nwant %+v", div, lq, lu, name, g, w)
					}
				}
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
