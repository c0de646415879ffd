package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/faults"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
)

func TestHistogramHandComputed(t *testing.T) {
	h := NewHistogram(1, 16)
	for _, v := range []int{1, 1, 2, 3, 4, 4, 4, 5, 9, 10} {
		h.Observe(v)
	}
	if h.N != 10 || h.Max != 10 || h.Sum != 43 {
		t.Fatalf("N=%d Max=%d Sum=%d", h.N, h.Max, h.Sum)
	}
	if m := h.Mean(); math.Abs(m-4.3) > 1e-9 {
		t.Errorf("mean %g, want 4.3", m)
	}
	// Sorted: 1 1 2 3 4 4 4 5 9 10. p50 → 5th value = 4; p95 → ⌈9.5⌉ =
	// 10th = 10; p99 → 10th = 10; p0 → 1st = 1.
	for _, c := range []struct {
		q    float64
		want int
	}{{0, 1}, {0.5, 4}, {0.95, 10}, {0.99, 10}, {1, 10}} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("q=%g: got %d, want %d", c.q, got, c.want)
		}
	}
	s := h.Summarize()
	if s.P50 != 4 || s.P95 != 10 || s.P99 != 10 || s.Max != 10 || s.N != 10 {
		t.Errorf("summary %+v", s)
	}
}

func TestHistogramOverflowAndWidth(t *testing.T) {
	h := NewHistogram(4, 2) // in-range: [0,8); everything else overflows
	for _, v := range []int{0, 3, 4, 8, 100} {
		h.Observe(v)
	}
	if h.Over != 2 {
		t.Fatalf("overflow count %d, want 2", h.Over)
	}
	// p50 → 3rd of {0,3,4,8,100} = 4, reported as its bucket's upper
	// edge 7... but clamped to Max only when beyond; bucket [4,8) has
	// upper edge 7.
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 %d, want bucket edge 7", got)
	}
	// Quantiles landing in the overflow report Max.
	if got := h.Quantile(1); got != 100 {
		t.Errorf("p100 %d, want 100", got)
	}
	bk := h.NonEmptyBuckets()
	want := []Bucket{{Le: 3, Count: 2}, {Le: 7, Count: 1}, {Le: 100, Count: 2}}
	if !reflect.DeepEqual(bk, want) {
		t.Errorf("buckets %+v, want %+v", bk, want)
	}
	if empty := NewHistogram(1, 4); empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean not 0")
	}
}

// The series halves resolution instead of truncating: capacity 4 over
// 8 adds retains 4 samples at stride 2, each the mean of its pair, and
// the overall mean is preserved exactly for stride-aligned runs.
func TestSeriesStrideDoubling(t *testing.T) {
	s := NewSeries(4)
	for i := 1; i <= 8; i++ {
		s.Add(float64(i))
	}
	if s.Stride() != 2 {
		t.Fatalf("stride %d, want 2 (%v)", s.Stride(), s)
	}
	got := s.Samples()
	want := []float64{1.5, 3.5, 5.5, 7.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("samples %v, want %v", got, want)
	}
	if s.Len() != 8 {
		t.Errorf("Len %d, want 8", s.Len())
	}
	// A trailing partial window is included in Samples.
	s.Add(100)
	got = s.Samples()
	if len(got) != 5 || got[4] != 100 {
		t.Errorf("partial window samples %v", got)
	}
	// Long run: memory stays bounded, total mean is preserved.
	s2 := NewSeries(8)
	const n = 1 << 12
	sum := 0.0
	for i := 0; i < n; i++ {
		v := float64(i % 17)
		s2.Add(v)
		sum += v
	}
	samples := s2.Samples()
	if len(samples) > 9 {
		t.Fatalf("retained %d samples, cap 8 (+1 partial)", len(samples))
	}
	mean := 0.0
	for _, v := range samples {
		mean += v
	}
	mean /= float64(len(samples))
	if math.Abs(mean-sum/n) > 1e-9 {
		t.Errorf("downsampled mean %g, true mean %g", mean, sum/n)
	}
}

// The hand-computed MaxLinkQueue workload, observed: A(2 flits) heads
// for link 1 while B and C arrive behind it after one hop. Every
// aggregate the recorder derives is checked against the hand count.
func handMsgs() []*netsim.Message {
	return []*netsim.Message{
		{Route: []int32{1}, Flits: 2},    // A
		{Route: []int32{2, 1}, Flits: 1}, // B
		{Route: []int32{3, 1}, Flits: 1}, // C
	}
}

func TestRecorderHandComputed(t *testing.T) {
	for _, mode := range []netsim.Mode{netsim.StoreAndForward, netsim.CutThrough} {
		r := NewRecorder()
		res, err := netsim.SimulateProbed(handMsgs(), mode, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 4 || res.MaxLinkQueue != 3 {
			t.Fatalf("%v: unexpected run shape %+v", mode, res)
		}
		if r.Runs != 1 || r.Steps != 4 {
			t.Errorf("%v: runs=%d steps=%d", mode, r.Runs, r.Steps)
		}
		// Crossings: A 2 (link 1), B 2 (links 2,1), C 2 (links 3,1).
		if r.Moved != 6 || uint64(res.FlitsMoved) != r.Moved {
			t.Errorf("%v: moved %d, want 6", mode, r.Moved)
		}
		// Destination arrivals: A's 2 flits + B's 1 + C's 1.
		if r.FlitLatency.N != 4 {
			t.Errorf("%v: flit arrivals %d, want 4", mode, r.FlitLatency.N)
		}
		if r.Delivered != 3 || r.Failed != 0 || r.MsgLatency.N != 3 {
			t.Errorf("%v: delivered=%d failed=%d latN=%d", mode, r.Delivered, r.Failed, r.MsgLatency.N)
		}
		// The last message completes at the last step.
		if r.MsgLatency.Max != 4 {
			t.Errorf("%v: max message latency %d, want 4", mode, r.MsgLatency.Max)
		}
		// 3 links sampled on each of 4 steps; peak queue is 3 messages.
		if r.QueueDepth.N != 12 || r.QueueDepth.Max != 3 {
			t.Errorf("%v: queue samples %d max %d, want 12 and 3", mode, r.QueueDepth.N, r.QueueDepth.Max)
		}
	}
}

func TestRecorderLinkUtilization(t *testing.T) {
	r := NewRecorderOpts(RecorderOpts{LinkUtil: true, UtilCap: 8})
	// One message, 4 flits over external link 5: the link moves one
	// flit on each of the 4 steps.
	res, err := netsim.SimulateProbed([]*netsim.Message{{Route: []int32{5}, Flits: 4}}, netsim.CutThrough, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 4 {
		t.Fatalf("steps %d", res.Steps)
	}
	util := r.LinkUtilization()
	if len(util) != 1 {
		t.Fatalf("tracked links %v, want just external id 5", util)
	}
	if !reflect.DeepEqual(util[5], []float64{1, 1, 1, 1}) {
		t.Errorf("link 5 utilization %v, want all-busy", util[5])
	}
	if s, ok := r.UtilizationOf(5); !ok || s.Len() != 4 {
		t.Errorf("UtilizationOf(5) = %v, %t", s, ok)
	}
	if _, ok := r.UtilizationOf(6); ok {
		t.Error("untracked link reported")
	}
}

func TestRecorderUnderFaults(t *testing.T) {
	// Permanent fault on link 1 from step 2: A is mid-crossing, B and C
	// become doomed when their flits arrive.
	sched := faults.NewSchedule().FailLink(1, 2)
	r := NewRecorder()
	fr, err := netsim.SimulateFaults(handMsgs(), netsim.CutThrough, netsim.FaultOpts{
		Faults: sched, Probe: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr.FailedMsgs == 0 {
		t.Fatalf("fault did not bite: %+v", fr.Result)
	}
	if r.Failed != fr.FailedMsgs || r.Delivered != fr.DeliveredMsgs {
		t.Errorf("recorder failed=%d delivered=%d vs result %d/%d",
			r.Failed, r.Delivered, fr.FailedMsgs, fr.DeliveredMsgs)
	}
	if r.Dropped != uint64(fr.DroppedFlits) || r.Moved != uint64(fr.FlitsMoved) {
		t.Errorf("recorder dropped=%d moved=%d vs result %d/%d",
			r.Dropped, r.Moved, fr.DroppedFlits, fr.FlitsMoved)
	}
}

// Recorder accumulates across runs when reused.
func TestRecorderAccumulatesAcrossRuns(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 3; i++ {
		if _, err := netsim.SimulateProbed(handMsgs(), netsim.CutThrough, r); err != nil {
			t.Fatal(err)
		}
	}
	if r.Runs != 3 || r.Delivered != 9 || r.Moved != 18 || r.Steps != 12 {
		t.Errorf("accumulation off: %+v", r)
	}
}

func TestTraceWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if _, err := netsim.SimulateProbed(handMsgs(), netsim.CutThrough, tw); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	counts := map[string]int{}
	links := map[float64]bool{}
	for _, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", ln, err)
		}
		kind, _ := ev["ev"].(string)
		counts[kind]++
		if ev["run"].(float64) != 1 {
			t.Fatalf("run != 1 in %q", ln)
		}
		if kind == "move" {
			links[ev["link"].(float64)] = true
		}
	}
	if counts["begin"] != 1 || counts["move"] != 6 || counts["deliver"] != 4 ||
		counts["done"] != 3 || counts["step"] != 4 || counts["drop"] != 0 {
		t.Errorf("event counts %v", counts)
	}
	// Links are reported in the external id space of the routes.
	for _, want := range []float64{1, 2, 3} {
		if !links[want] {
			t.Errorf("external link %g missing from moves (got %v)", want, links)
		}
	}

	// Moves=false keeps only the digest events.
	buf.Reset()
	tw2 := NewTraceWriter(&buf)
	tw2.Moves = false
	if _, err := netsim.SimulateProbed(handMsgs(), netsim.CutThrough, tw2); err != nil {
		t.Fatal(err)
	}
	if err := tw2.Flush(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"ev":"move"`)) {
		t.Error("move events emitted with Moves=false")
	}
}

func TestMultiFansOutAndElides(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi should be nil")
	}
	r := NewRecorder()
	if Multi(nil, r) != netsim.Probe(r) {
		t.Error("single-probe Multi should unwrap")
	}
	r2 := NewRecorder()
	both := Multi(r, r2)
	if _, err := netsim.SimulateProbed(handMsgs(), netsim.CutThrough, both); err != nil {
		t.Fatal(err)
	}
	if r.Moved != 6 || r2.Moved != 6 || r.Delivered != 3 || r2.Delivered != 3 {
		t.Errorf("fan-out incomplete: %d/%d moved, %d/%d delivered",
			r.Moved, r2.Moved, r.Delivered, r2.Delivered)
	}
}

// Attaching any probe must not change results — the package-level
// guarantee the netsim fuzzers assert exhaustively; spot-checked here
// at the obsv layer with both a Recorder and a TraceWriter attached.
func TestProbeDoesNotPerturbResults(t *testing.T) {
	msgs := handMsgs()
	for _, mode := range []netsim.Mode{netsim.StoreAndForward, netsim.CutThrough} {
		bare, err := netsim.Simulate(msgs, mode)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		probed, err := netsim.SimulateProbed(msgs, mode, Multi(NewRecorder(), NewTraceWriter(&buf)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, probed) {
			t.Errorf("%v: probe changed result: %+v vs %+v", mode, bare, probed)
		}
	}
}

// Per-link queue-depth accumulation (RecorderOpts.LinkQueues) against
// hand-fed probe callbacks: stats key by external id and Reset clears
// them.
func TestRecorderLinkQueueDepth(t *testing.T) {
	rec := NewRecorderOpts(RecorderOpts{LinkQueues: true})
	rec.BeginRun(netsim.RunInfo{Messages: 1, Links: 2, LinkExt: []int{4, 9}})
	rec.StepEnd(0, []int{3, 1}, []int32{0, 1})
	rec.StepEnd(1, []int{5, 0}, []int32{0, 1})

	s, ok := rec.LinkQueueDepth(4)
	if !ok || s.Sum != 8 || s.N != 2 || s.Max != 5 || s.Mean() != 4 {
		t.Fatalf("link 4: got %+v ok=%v, want Sum 8 N 2 Max 5 Mean 4", s, ok)
	}
	if s, ok = rec.LinkQueueDepth(9); !ok || s.Sum != 1 || s.Max != 1 {
		t.Fatalf("link 9: got %+v ok=%v", s, ok)
	}
	if _, ok = rec.LinkQueueDepth(0); ok {
		t.Fatal("unobserved link 0 reported a stat")
	}
	var seen []int
	rec.EachLinkQueueDepth(func(link int, _ LinkQueueStat) { seen = append(seen, link) })
	if len(seen) != 2 || seen[0] != 4 || seen[1] != 9 {
		t.Fatalf("EachLinkQueueDepth visited %v, want [4 9]", seen)
	}

	rec.Reset()
	if _, ok := rec.LinkQueueDepth(4); ok {
		t.Fatal("Reset left link 4 observed")
	}
	rec.EachLinkQueueDepth(func(link int, _ LinkQueueStat) {
		t.Fatalf("Reset left link %d visible", link)
	})
}

// netsim numbers negative route ids through its sparse map; a
// LinkQueues Recorder must skip them instead of indexing its per-link
// slices with them, and still count the run's other links.
func TestRecorderLinkQueuesNegativeIDs(t *testing.T) {
	msgs := []*netsim.Message{
		{Route: []int32{-5, 7}, Flits: 2},
		{Route: []int32{-5}, Flits: 1},
	}
	rec := NewRecorderOpts(RecorderOpts{LinkQueues: true})
	res, err := netsim.SimulateProbed(msgs, netsim.CutThrough, rec)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := rec.LinkQueueDepth(7); !ok || s.N != uint64(res.Steps) {
		t.Fatalf("link 7: got %+v ok=%v, want one sample per step (%d)", s, ok, res.Steps)
	}
	if s, ok := rec.LinkQueueDepth(-5); ok {
		t.Fatalf("link -5 reported observed: %+v", s)
	}
}

// TestRecorderOpenLoopShardedEqualsSingleShard pins the open-loop
// observation contract: the sharded open-loop engine merges its
// workers' probe events and latency observations into one canonical
// stream, so a single Recorder (probe + MsgLatency sink) fed by
// SimulateOpenLoopSharded must reproduce the single-shard-fed
// Recorder exactly — histograms, counters, and per-link utilization.
func TestRecorderOpenLoopShardedEqualsSingleShard(t *testing.T) {
	q := hypercube.New(4)
	rng := rand.New(rand.NewSource(23))
	tmpls := netsim.PermutationMessages(q, rng.Perm(q.Nodes()), 3)
	tr := &netsim.Trace{}
	for i := range tmpls {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: (i / 3) * 2, Tmpl: int32(i)})
	}
	opts := RecorderOpts{LinkUtil: true, UtilCap: 32}

	run := func(shards int) (*Recorder, *netsim.OpenLoopResult) {
		rec := NewRecorderOpts(opts)
		ol := netsim.OpenLoopOpts{Mode: netsim.CutThrough, Probe: rec, Sink: rec.MsgLatency}
		var res *netsim.OpenLoopResult
		var err error
		if shards <= 1 {
			res, err = netsim.SimulateOpenLoop(tmpls, tr.Source(), ol)
		} else {
			res, err = netsim.SimulateOpenLoopSharded(tmpls, tr.Source(), ol, shards)
		}
		if err != nil {
			t.Fatal(err)
		}
		return rec, res
	}

	single, want := run(1)
	for _, shards := range []int{2, 3, 8} {
		got, res := run(shards)
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("shards=%d: result %+v != single %+v", shards, res, want)
		}
		if !reflect.DeepEqual(got.MsgLatency, single.MsgLatency) {
			t.Errorf("shards=%d: msg latency %+v != %+v", shards, got.MsgLatency, single.MsgLatency)
		}
		if !reflect.DeepEqual(got.FlitLatency, single.FlitLatency) {
			t.Errorf("shards=%d: flit latency diverges", shards)
		}
		if !reflect.DeepEqual(got.QueueDepth, single.QueueDepth) {
			t.Errorf("shards=%d: queue depth diverges", shards)
		}
		if got.Delivered != single.Delivered || got.Failed != single.Failed ||
			got.Moved != single.Moved || got.Dropped != single.Dropped {
			t.Errorf("shards=%d: counters diverge: %+v vs %+v", shards, got, single)
		}
		if !reflect.DeepEqual(got.LinkUtilization(), single.LinkUtilization()) {
			t.Errorf("shards=%d: link utilization diverges", shards)
		}
	}
}
