package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// layers are the library layers the benchmark times, in report order.
// Spans in layer "bench" are the benchmark's own work (rounds, ops,
// output checks); spans in layer "retained" time the retained builders
// that construct.retained_ratio divides by.
var layers = []string{
	"construct", "verify", "ppacket", "templates", "numbering", "closed",
	"arrivals", "open", "faultsim", "obsv", "selfheal", "routing",
}

// span is one recorded call: "<layer>.<call>", its interval on the
// tracer's clock, its parent span (-1 for a round), the op it belongs
// to, and the heap allocations made while it was open.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	Split  bool   `json:"split,omitempty"`
	layer  string
}

// tracer keeps spans in memory; write saves them when the run ends.
// runtime.MemStats is read at every span edge, which is why only traced
// rounds pay for it.
type tracer struct {
	epoch     time.Time
	spans     []span
	stack     []int32
	op        int32
	rounds    int
	splitTime time.Duration // total time in split calls
	counts    map[string]float64
	ms        runtime.MemStats
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<12), counts: map[string]float64{}}
}

func (t *tracer) begin(layer, name string, split bool) int32 {
	runtime.ReadMemStats(&t.ms)
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		Name: layer + "." + name, layer: layer, Parent: parent, Op: t.op, Split: split,
		Allocs: t.ms.Mallocs, Bytes: t.ms.TotalAlloc,
	})
	t.stack = append(t.stack, id)
	t.spans[id].Start = int64(time.Since(t.epoch))
	return id
}

func (t *tracer) end(id int32) {
	end := int64(time.Since(t.epoch))
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[id]
	s.End = end
	s.Allocs = t.ms.Mallocs - s.Allocs
	s.Bytes = t.ms.TotalAlloc - s.Bytes
	t.stack = t.stack[:len(t.stack)-1]
	if s.Split {
		t.splitTime += time.Duration(end - s.Start)
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// agg sums the spans of one layer or one span name. self is a span's
// duration minus its children's, so the self times of all spans add up
// to the traced rounds' wall time.
type agg struct {
	self   int64 // ns
	calls  int
	allocs uint64 // self
	bytes  uint64 // self
	durs   []float64
}

func (t *tracer) aggregate() (byLayer, byName map[string]*agg) {
	childNS := make([]int64, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	childBytes := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
			childAllocs[s.Parent] += s.Allocs
			childBytes[s.Parent] += s.Bytes
		}
	}
	byLayer, byName = map[string]*agg{}, map[string]*agg{}
	for i, s := range t.spans {
		dur := s.End - s.Start
		for _, a := range []*agg{get(byLayer, s.layer), get(byName, s.Name)} {
			a.self += dur - childNS[i]
			a.calls++
			a.allocs += s.Allocs - childAllocs[i]
			a.bytes += s.Bytes - childBytes[i]
			a.durs = append(a.durs, float64(dur)/1e6)
		}
	}
	return byLayer, byName
}

func get(m map[string]*agg, k string) *agg {
	if m[k] == nil {
		m[k] = &agg{}
	}
	return m[k]
}

type metric struct {
	name  string
	unit  string
	value float64
}

// perLayer derives the traced run's metrics. Times, allocations and
// work counters are per round; calls and the call-duration percentiles
// cover every call of the traced phase.
func perLayer(t *tracer, plain, traced phase) []metric {
	byLayer, byName := t.aggregate()
	rounds := float64(t.rounds)
	var ms []metric
	add := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms = append(ms, metric{name, unit, v})
	}
	perRound := func(key string) float64 { return t.counts[key] / rounds }
	busy := func(a *agg) float64 { return float64(a.self) / 1e9 / rounds }
	nsPer := func(a *agg, key string) float64 { return float64(a.self) / t.counts[key] }
	ratio := func(num, den *agg) float64 { return float64(num.self) / float64(den.self) }
	name := func(n string) *agg { return get(byName, n) }

	for _, l := range layers {
		a := get(byLayer, l)
		switch l {
		case "obsv":
			add("obsv.summarize_s", "s", busy(a))
		case "routing":
			// Reported per strategy below.
		default:
			add(l+".busy_s", "s", busy(a))
		}
		p50, tail, pct := callStats(a.durs)
		add(l+".calls", "count", float64(a.calls))
		add(l+".call_p50_ms", "ms", p50)
		add(l+".call_tail_ms", "ms", tail)
		add(l+".call_tail_pct", "percentile", pct)
		allocs := float64(a.allocs) / rounds
		switch l {
		case "construct":
			add("construct.path_edges", "count", perRound("construct.path_edges"))
			add("construct.ns_per_path_edge", "ns", nsPer(a, "construct.path_edges"))
			add("construct.allocs", "count", allocs)
			add("construct.retained_ratio", "ratio", ratio(a, get(byLayer, "retained")))
		case "verify":
			add("verify.path_edges", "count", perRound("verify.path_edges"))
			add("verify.ns_per_path_edge", "ns", nsPer(a, "verify.path_edges"))
			add("verify.allocs", "count", allocs)
		case "ppacket":
			add("ppacket.allocs", "count", allocs)
			add("ppacket.alloc_mb", "MB", float64(a.bytes)/1e6/rounds)
		case "templates":
			add("templates.messages", "count", perRound("templates.messages"))
			add("templates.ns_per_message", "ns", nsPer(a, "templates.messages"))
			add("templates.allocs", "count", allocs)
		case "numbering":
			add("numbering.positions", "count", perRound("numbering.positions"))
			add("numbering.ns_per_position", "ns", nsPer(a, "numbering.positions"))
		case "closed":
			add("closed.flit_hops", "count", perRound("closed.flit_hops"))
			add("closed.steps", "count", perRound("closed.steps"))
			add("closed.ns_per_flit_hop", "ns", nsPer(a, "closed.flit_hops"))
			add("closed.allocs", "count", allocs)
			add("closed.shard2_ratio", "ratio", ratio(name("closed.SimulateSharded/ct"), name("closed.Simulate/ct")))
		case "arrivals":
			add("arrivals.count", "count", perRound("arrivals.count"))
			add("arrivals.ns_per_arrival", "ns", nsPer(a, "arrivals.count"))
		case "open":
			add("open.flit_hops", "count", perRound("open.flit_hops"))
			add("open.simulated_steps", "count", perRound("open.simulated_steps"))
			add("open.skip_frac", "fraction", t.counts["open.skipped_steps"]/t.counts["open.steps"])
			add("open.max_in_flight", "count", t.counts["open.max_in_flight"])
			add("open.ns_per_flit_hop", "ns", nsPer(a, "open.flit_hops"))
			add("open.allocs", "count", allocs)
			add("open.shard2_ratio", "ratio", ratio(name("open.SimulateOpenLoopSharded/cube"), name("open.SimulateOpenLoop/cube")))
		case "faultsim":
			add("faultsim.flit_hops", "count", perRound("faultsim.flit_hops"))
			add("faultsim.failed_msgs", "count", perRound("faultsim.failed_msgs"))
			add("faultsim.dropped_flits", "count", perRound("faultsim.dropped_flits"))
			add("faultsim.ns_per_flit_hop", "ns", nsPer(a, "faultsim.flit_hops"))
		case "obsv":
			add("obsv.recorder_ratio", "ratio", ratio(name("faultsim.SimulateFaults/recorder"), name("faultsim.SimulateFaults")))
		case "selfheal":
			add("selfheal.transfers", "count", perRound("selfheal.transfers"))
			add("selfheal.retries", "count", perRound("selfheal.retries"))
			add("selfheal.reroutes", "count", perRound("selfheal.reroutes"))
			add("selfheal.abandoned", "count", perRound("selfheal.abandoned"))
			add("selfheal.delivered_frac", "fraction", t.counts["selfheal.delivered"]/t.counts["selfheal.transfers"])
			add("selfheal.useful_ratio", "ratio", t.counts["selfheal.pieces_delivered"]/t.counts["selfheal.pieces_injected"])
			add("selfheal.ns_per_flit_hop", "ns", nsPer(a, "selfheal.flit_hops"))
			add("selfheal.allocs", "count", allocs)
		case "routing":
			for _, s := range strategies {
				k := "routing." + s
				add(k+".busy_s", "s", busy(name(k)))
				add(k+".ns_per_flit_hop", "ns", nsPer(name(k), k+".flit_hops"))
				add(k+".delivered_frac", "fraction", t.counts[k+".delivered"]/t.counts[k+".arrivals"])
			}
		}
	}

	add("bench.busy_s", "s", busy(get(byLayer, "bench")))
	var total int64
	for _, a := range byLayer {
		total += a.self
	}
	var tracedWall float64
	var plainRounds, tracedRounds []float64
	for _, r := range traced.rounds {
		tracedWall += r.wall.Seconds()
		tracedRounds = append(tracedRounds, (r.wall - r.splitTime).Seconds())
	}
	for _, r := range plain.rounds {
		plainRounds = append(plainRounds, r.wall.Seconds())
	}
	add("trace.covered_frac", "fraction", float64(total)/1e9/tracedWall)
	add("trace.overhead_frac", "fraction", median(tracedRounds)/median(plainRounds)-1)
	return ms
}

// callStats returns the median call duration, and the tail: the highest
// whole percentile with at least ten calls beyond it, with that
// percentile (0 and 0 when fewer than 20 calls leave no such tail).
func callStats(durs []float64) (p50, tail, pct float64) {
	n := len(durs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(durs)
	slices.Sort(s)
	rank := func(p float64) float64 {
		i := int(math.Ceil(p/100*float64(n))) - 1
		return s[max(0, min(i, n-1))]
	}
	p50 = rank(50)
	if n < 20 {
		return p50, 0, 0
	}
	pct = math.Floor(100 - 1000/float64(n))
	return p50, rank(pct), pct
}
