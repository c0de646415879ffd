package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"multipath/internal/core"
	"multipath/internal/faults"
	"multipath/internal/ida"
	"multipath/internal/obsv"
)

// shrunk lists the experiments the init below runs at sizes other
// than EXPERIMENTS.md's; TestAllExperimentsProduceTables checks every
// other table against the file.
var shrunk = map[string]bool{"E25": true, "E26": true, "E27": true, "E29": true}

// The E25 shard sweep defaults to Q_16/Q_20 hosts — minutes of wall
// clock that the regression gate does not need. Simulating Q_10 at a
// few shard counts exercises the identical code paths. The tables
// printed at these sizes differ from EXPERIMENTS.md, which is why the
// tests below never run the file check on them.
func init() {
	shardDims = []int{10}
	shardMax = 4
	// The E26 open-loop sweep likewise shrinks to one small host, two
	// loads, and short traces; the code paths are identical.
	trafficDims = []int{10}
	trafficEdges = 16
	trafficLoads = []float64{0.1, 0.8}
	trafficN = 1500
	trickleN = 300
	// The E27 whole-cube sharded sweep shrinks to Q_10 with a small
	// arrival budget; the verification paths are identical.
	olDims = []int{10}
	olLoads = []float64{0.2, 0.9}
	olNMax = 2000
	// The E29 strategy race shrinks to Q_10, two loads, and short
	// traces; every contender, fabric, and pattern still runs.
	raceDims = []int{10}
	raceSources = 256
	raceLoads = []float64{0.2, 1.2}
	raceN = 800
}

// hostDependent matches what must never appear in a table: wall-clock
// durations and the host's CPU budget.
var hostDependent = regexp.MustCompile(`GOMAXPROCS|CPU|\d(ns|µs|ms|s)\b`)

// Every experiment must run cleanly and produce a non-trivial table
// with no host-dependent cell or note, and every table run at its file
// sizes must equal its section of EXPERIMENTS.md, so a change that
// moves a reproduced value fails here; this is the regression gate for
// EXPERIMENTS.md regeneration. Running through runExperiments with
// parallelism on also exercises the worker-pool path end to end.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var atFileSize []*table
	for _, o := range runExperiments(experimentList(), true) {
		if o.err != nil {
			t.Errorf("%s: %v", o.exp.id, o.err)
			continue
		}
		tab := o.tab
		if !shrunk[o.exp.id] {
			atFileSize = append(atFileSize, tab)
		}
		if tab.id != o.exp.id {
			t.Errorf("%s: outcome carries table id %q", o.exp.id, tab.id)
		}
		if len(tab.rows) == 0 {
			t.Errorf("%s: empty table", o.exp.id)
		}
		for _, r := range tab.rows {
			if len(r) != len(tab.headers) {
				t.Errorf("%s: ragged row %v vs headers %v", o.exp.id, r, tab.headers)
			}
		}
		for _, l := range tab.render() {
			if m := hostDependent.FindString(l); m != "" {
				t.Errorf("%s: host-dependent %q in %q", o.exp.id, m, l)
			}
		}
	}
	for _, d := range diffTables(string(doc), atFileSize) {
		t.Error(d)
	}
}

// Parallel scheduling must not change any experiment's content. A
// fast subset stands in for the whole suite, whose every table is
// deterministic simulation output.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	var exps []experiment
	for _, e := range experimentList() {
		switch e.id {
		case "E1", "E7", "E12", "E17", "E18", "E19":
			exps = append(exps, e)
		}
	}
	serial := runExperiments(exps, false)
	par := runExperiments(exps, true)
	for i := range exps {
		if serial[i].err != nil || par[i].err != nil {
			t.Fatalf("%s: serial err %v, parallel err %v", exps[i].id, serial[i].err, par[i].err)
		}
		s, p := serial[i].tab, par[i].tab
		if !reflect.DeepEqual(s.rows, p.rows) || !reflect.DeepEqual(s.headers, p.headers) {
			t.Errorf("%s: parallel table differs from serial\nserial: %v\nparallel: %v",
				exps[i].id, s.rows, p.rows)
		}
	}
}

// -run matches ids case-insensitively and rejects an id that matches
// nothing, so a typo cannot pass the check by checking no table.
func TestSelectExperiments(t *testing.T) {
	exps := experimentList()
	all, err := selectExperiments(exps, "")
	if err != nil || len(all) != len(exps) {
		t.Fatalf("empty id: %d experiments, err %v", len(all), err)
	}
	one, err := selectExperiments(exps, "e17")
	if err != nil || len(one) != 1 || one[0].id != "E17" {
		t.Fatalf("e17: %+v, err %v", one, err)
	}
	for _, id := range []string{"E999", "E1 ", "BOGUS"} {
		if got, err := selectExperiments(exps, id); err == nil || !strings.Contains(err.Error(), "-list") {
			t.Errorf("%q: got %d experiments, err %v; want an error pointing to -list", id, len(got), err)
		}
	}
}

// checkerTables are two small synthetic tables; checkerDoc prints them
// as EXPERIMENTS.md lays them out, with the hand-written prose the
// check must ignore: a paragraph between E2's heading and its table
// (E28's layout), one between E1's table and its note, and prose
// before, after and between the sections.
func checkerTables() []*table {
	a := &table{id: "E1", title: "first", headers: []string{"n", "cost"}}
	a.addRow("4", "3")
	a.addRow("8", "3")
	a.note("cost is %d", 3)
	b := &table{id: "E2", title: "second", headers: []string{"x"}}
	b.addRow("1")
	b.note("one note")
	b.note("two notes")
	return []*table{a, b}
}

func checkerDoc(tabs []*table) string {
	var buf bytes.Buffer
	buf.WriteString("# EXPERIMENTS\n\nIntro prose naming E1 and E2.\n")
	for _, t := range tabs {
		t.print(&buf)
		buf.WriteString("\nProse after the notes.\n")
	}
	buf.WriteString("\n## Commentary\n\n- **E1** — commentary.\n")
	doc := strings.Replace(buf.String(), "### E2 — second\n", "### E2 — second\n\nA paragraph between\nthe heading and the table.\n", 1)
	return strings.Replace(doc, "| 8 | 3    |\n", "| 8 | 3    |\n\nProse between the table and its note.\n", 1)
}

func TestDiffTables(t *testing.T) {
	tabs := checkerTables()
	doc := checkerDoc(tabs)
	// A #### subheading ends E1's section, so an old table kept under it
	// after the note, with a note of its own, is not checked.
	kept := strings.Replace(doc, "> cost is 3\n",
		"> cost is 3\n\n#### E1 before the change\n\n| n | cost |\n| - | ---- |\n| 4 | 2    |\n\n> cost was 2\n", 1)
	for _, d := range []string{doc, kept} {
		if diffs := diffTables(d, tabs); len(diffs) != 0 {
			t.Fatalf("identical tables reported differences: %q\n%s", diffs, d)
		}
	}
	cut := func(from, to string) string {
		return doc[:strings.Index(doc, from)] + doc[strings.Index(doc, to):]
	}
	for _, c := range []struct {
		name, id, doc string
	}{
		{"changed cell", "E1", strings.Replace(doc, "| 8 | 3    |", "| 8 | 4    |", 1)},
		{"changed note", "E1", strings.Replace(doc, "> cost is 3", "> cost is 4", 1)},
		{"changed heading", "E2", strings.Replace(doc, "### E2 — second", "### E2 — Second", 1)},
		{"missing section", "E2", cut("### E2", "## Commentary")},
		{"extra row", "E1", strings.Replace(doc, "| 8 | 3    |\n", "| 8 | 3    |\n| 9 | 3    |\n", 1)},
		{"missing note", "E2", strings.Replace(doc, "\n> two notes\n", "\n", 1)},
		{"extra note", "E2", strings.Replace(doc, "> two notes\n", "> two notes\n\n> three notes\n", 1)},
	} {
		diffs := diffTables(c.doc, tabs)
		if len(diffs) != 1 || !strings.HasPrefix(diffs[0], c.id+": ") {
			t.Errorf("%s: want one difference naming %s, got %q", c.name, c.id, diffs)
		}
	}
}

// E25's sharded engine matches the single-shard engine at every shard
// count of the sweep.
func TestShardSweepResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the shard sweep")
	}
	cases, err := measureShardSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(shardDims) {
		t.Fatalf("shard sweep has %d cases, want %d", len(cases), len(shardDims))
	}
	for _, c := range cases {
		if !reflect.DeepEqual(c.Shards, shardCountSweep()) {
			t.Errorf("Q_%d: verified shard counts %v, want %v", c.Dims, c.Shards, shardCountSweep())
		}
		if c.Steps == 0 || c.FlitsMoved == 0 {
			t.Errorf("Q_%d: degenerate case %+v", c.Dims, c)
		}
	}
}

// The E23 fault sweep carries one series per embedding×strategy and a
// point per probability; every series is monotone non-increasing in p
// and does no healing work on a clean fabric. At every p, IDA's mean
// latency is below the single path's, and its averaged delivered
// fraction is exactly the share of edges that path inspection says keep
// K paths clear of every dead link. The E28 self-healing sweep meets or
// beats the single-path baseline at every point.
func TestFaultSweepResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault sweep")
	}
	sweep, err := measureFaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	names, embs, err := faultEmbeddings()
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2*len(names) {
		t.Fatalf("sweep has %d series, want %d", len(sweep), 2*len(names))
	}
	byKey := map[string]faultSeries{}
	for _, s := range sweep {
		if len(s.Points) != len(faultProbs) {
			t.Fatalf("%s/%s: %d points, want %d", s.Embedding, s.Strategy, len(s.Points), len(faultProbs))
		}
		prev := 2.0
		for i, pt := range s.Points {
			if pt.P != faultProbs[i] {
				t.Errorf("%s/%s point %d: p=%g, want %g", s.Embedding, s.Strategy, i, pt.P, faultProbs[i])
			}
			if pt.DeliveredFraction > prev {
				t.Errorf("%s/%s: delivered fraction rose at p=%g: %g > %g",
					s.Embedding, s.Strategy, pt.P, pt.DeliveredFraction, prev)
			}
			prev = pt.DeliveredFraction
			if pt.DeliveredFraction > 0 && pt.MeanLatency <= 0 {
				t.Errorf("%s/%s p=%g: delivered but no latency recorded", s.Embedding, s.Strategy, pt.P)
			}
			// -1 is the documented "no data" sentinel: nothing
			// delivered must never read as latency 0.
			if pt.DeliveredFraction == 0 && pt.MeanLatency != -1 {
				t.Errorf("%s/%s p=%g: nothing delivered but mean latency %g, want -1",
					s.Embedding, s.Strategy, pt.P, pt.MeanLatency)
			}
			if pt.Reroutes > pt.Retries {
				t.Errorf("%s/%s p=%g: reroutes %d exceed retries %d",
					s.Embedding, s.Strategy, pt.P, pt.Reroutes, pt.Retries)
			}
			if pt.P == 0 && (pt.Retries != 0 || pt.DeliveredFraction != 1) {
				t.Errorf("%s/%s: clean fabric lost traffic or healed: %+v", s.Embedding, s.Strategy, pt)
			}
		}
		byKey[s.Embedding+"/"+s.Strategy] = s
	}
	for ei, name := range names {
		single, dispersed := byKey[name+"/single-path"], byKey[name+"/ida"]
		for i, p := range faultProbs {
			if dispersed.Points[i].MeanLatency >= single.Points[i].MeanLatency {
				t.Errorf("%s p=%g: IDA mean latency %g not below single-path %g",
					name, p, dispersed.Points[i].MeanLatency, single.Points[i].MeanLatency)
			}
			if got, want := dispersed.Points[i].DeliveredFraction, survivalFraction(t, embs[ei], dispersed.K, p); got != want {
				t.Errorf("%s p=%g: IDA delivered %g, path inspection predicts %g", name, p, got, want)
			}
		}
	}

	// E28: one series per schedule × backoff, a point per (p, rate),
	// delivered fraction at or above the E23 single-path baseline at
	// every fault rate, and the pre-measurement bit-identity
	// verification on record.
	heal, err := measureSelfHealSweep()
	if err != nil {
		t.Fatal(err)
	}
	if heal.VerifiedShards < 2 {
		t.Fatalf("bit-identity verified at %d shards, want >= 2", heal.VerifiedShards)
	}
	if len(heal.Series) != 4 {
		t.Fatalf("self-heal has %d series, want 4 (2 schedules x 2 backoffs)", len(heal.Series))
	}
	baseline := byKey[heal.Embedding+"/single-path"]
	if baseline.Strategy == "" {
		t.Fatalf("no single-path baseline series for %q", heal.Embedding)
	}
	baseByP := map[float64]float64{}
	for _, pt := range baseline.Points {
		baseByP[pt.P] = pt.DeliveredFraction
	}
	wantPoints := len(faultProbs) * len(heal.Rates)
	for _, s := range heal.Series {
		if len(s.Points) != wantPoints {
			t.Fatalf("self-heal %s/%s: %d points, want %d", s.Schedule, s.Backoff, len(s.Points), wantPoints)
		}
		for _, pt := range s.Points {
			if pt.DeliveredFraction < baseByP[pt.P] {
				t.Errorf("self-heal %s/%s p=%g rate=%d: delivered %g below single-path baseline %g",
					s.Schedule, s.Backoff, pt.P, pt.Rate, pt.DeliveredFraction, baseByP[pt.P])
			}
			if pt.DeadlineMissFraction < 0 || pt.DeadlineMissFraction > 1 {
				t.Errorf("self-heal %s/%s p=%g rate=%d: miss fraction %g out of [0,1]",
					s.Schedule, s.Backoff, pt.P, pt.Rate, pt.DeadlineMissFraction)
			}
			if pt.Reroutes > pt.Retries {
				t.Errorf("self-heal %s/%s p=%g rate=%d: reroutes %d exceed retries %d",
					s.Schedule, s.Backoff, pt.P, pt.Rate, pt.Reroutes, pt.Retries)
			}
			if pt.P == 0 {
				if pt.Retries != 0 || pt.Abandoned != 0 || pt.Repaired.N != 0 {
					t.Errorf("self-heal %s/%s rate=%d: clean fabric reports healing work: %+v",
						s.Schedule, s.Backoff, pt.Rate, pt)
				}
			} else if pt.Repaired.N > 0 && pt.Repaired.P99 < pt.Latency.P50 {
				t.Errorf("self-heal %s/%s p=%g rate=%d: post-repair p99 %d below overall p50 %d",
					s.Schedule, s.Backoff, pt.P, pt.Rate, pt.Repaired.P99, pt.Latency.P50)
			}
		}
	}
}

// survivalFraction is E23's IDA delivered fraction as path inspection
// predicts it, sharing no code with the simulator: per seed, the share
// of guest edges with at least k paths clear of every faulty link,
// averaged over the seeds.
func survivalFraction(t *testing.T, e *core.Embedding, k int, p float64) float64 {
	t.Helper()
	var sum float64
	for seed := 1; seed <= faultSeeds; seed++ {
		model := ida.ModelOf(faults.Bernoulli(e.Host.DirectedEdges(), p, int64(seed)))
		survived := 0
		for _, paths := range e.Paths {
			intact := 0
			for _, path := range paths {
				ok, err := model.PathOK(e, path)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					intact++
				}
			}
			if intact >= k {
				survived++
			}
		}
		sum += float64(survived) / float64(len(e.Paths))
	}
	return sum / float64(faultSeeds)
}

// Paper-vs-measured agreement spot checks through the experiment layer.
func TestE2ReportsCostThree(t *testing.T) {
	tab, err := runE2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.rows {
		if r[3] != "3" {
			t.Errorf("n=%s: synchronized cost %s", r[0], r[3])
		}
	}
}

func TestE9ReportsCongestionTwo(t *testing.T) {
	tab, err := runE9()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.rows {
		if r[4] != "2" {
			t.Errorf("n=%s: Theorem 3 congestion %s", r[0], r[4])
		}
	}
}

func TestE16AblationsCollide(t *testing.T) {
	tab, err := runE16()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.rows {
		ablated := strings.Contains(r[1], "ablated")
		collides := strings.Contains(r[4], "COLLIDES")
		if ablated != collides {
			t.Errorf("labeler %q: schedule %q", r[1], r[4])
		}
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &table{
		id: "T", title: "test", headers: []string{"a", "bb"},
	}
	tab.addRow("1", "2")
	tab.note("hello %d", 7)
	var buf bytes.Buffer
	tab.print(&buf)
	want := "\n### T — test\n\n| a | bb |\n| - | -- |\n| 1 | 2  |\n\n> hello 7\n"
	if buf.String() != want {
		t.Errorf("printed %q, want %q", buf.String(), want)
	}
}

// The E24 observability cases carry populated latency and queue-depth
// distributions with ordered quantiles, and the required workloads
// (Theorem 1/2 at n=16, the E23 sweep per strategy) are all present.
func TestObsSweepResults(t *testing.T) {
	if testing.Short() {
		t.Skip("observability sweep is slow")
	}
	cases, err := measureObsSweep()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"theorem1-n16":                false,
		"theorem2-n16":                false,
		"e23-fault-sweep/single-path": false,
		"e23-fault-sweep/ida":         false,
	}
	checkSummary := func(name, which string, s obsv.Summary) {
		if s.N == 0 {
			t.Errorf("%s: empty %s distribution", name, which)
			return
		}
		if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Errorf("%s: %s quantiles out of order: %+v", name, which, s)
		}
	}
	for _, c := range cases {
		if _, ok := want[c.Name]; !ok {
			t.Errorf("unexpected case %q", c.Name)
			continue
		}
		want[c.Name] = true
		if c.Runs < 1 || c.Delivered == 0 {
			t.Errorf("%s: degenerate case %+v", c.Name, c)
		}
		checkSummary(c.Name, "flit latency", c.FlitLatency)
		checkSummary(c.Name, "message latency", c.MsgLatency)
		if c.QueueDepth.N == 0 || len(c.QueueDepthBuckets) == 0 {
			t.Errorf("%s: missing queue-depth histogram", c.Name)
		}
		var bucketN uint64
		for _, b := range c.QueueDepthBuckets {
			bucketN += b.Count
		}
		if bucketN != c.QueueDepth.N {
			t.Errorf("%s: queue-depth buckets sum to %d, N=%d", c.Name, bucketN, c.QueueDepth.N)
		}
		if strings.HasPrefix(c.Name, "theorem") && (c.Failed != 0 || c.DroppedFlits != 0) {
			t.Errorf("%s: fault-free workload lost traffic: %+v", c.Name, c)
		}
		if c.MaxLinkQueue < c.QueueDepth.Max {
			t.Errorf("%s: engine peak queue %d below StepEnd max %d",
				c.Name, c.MaxLinkQueue, c.QueueDepth.Max)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("case %q missing from the sweep", name)
		}
	}
}

// checkTrafficPoints asserts what every E26/E27 load point must show:
// the swept load, every arrival delivered, and ordered latency
// quantiles.
func checkTrafficPoints(t *testing.T, name string, pts []trafficPoint, loads []float64) {
	t.Helper()
	if len(pts) != len(loads) {
		t.Fatalf("%s: %d points, want %d", name, len(pts), len(loads))
	}
	for i, pt := range pts {
		if pt.Load != loads[i] {
			t.Errorf("%s point %d: load %g, want %g", name, i, pt.Load, loads[i])
		}
		if pt.Delivered != pt.Arrivals {
			t.Errorf("%s load %g: delivered %d of %d", name, pt.Load, pt.Delivered, pt.Arrivals)
		}
		s := pt.Latency
		if s.N == 0 || !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Errorf("%s load %g: bad latency summary %+v", name, pt.Load, s)
		}
	}
}

// The open-loop sweeps: E26 has one case per embedding×dimension with
// a detected saturation point; E27 has a poisson and an mmpp curve per
// case and a verified run per shard count; E29 races all five
// contenders on both fabrics with conservation and seed replay on
// record — and feedback-adaptive routing beats dimension-order on the
// clean hotspot's tail.
func TestTrafficSweepResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the open-loop sweeps")
	}
	cases, err := measureTrafficSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 2*len(trafficDims) {
		t.Fatalf("E26 has %d cases, want %d (theorem1+theorem2 per dim)", len(cases), 2*len(trafficDims))
	}
	for _, c := range cases {
		if c.Capacity <= 0 || c.Templates == 0 || c.MeanFlitHops <= 0 {
			t.Errorf("%s Q_%d: degenerate case %+v", c.Embedding, c.Dims, c)
		}
		checkTrafficPoints(t, fmt.Sprintf("%s Q_%d", c.Embedding, c.Dims), c.Points, trafficLoads)
		for _, pt := range c.Points {
			if uint64(pt.Arrivals) <= pt.Latency.N {
				t.Errorf("%s Q_%d load %g: warm-up not excluded (%d observed of %d)",
					c.Embedding, c.Dims, pt.Load, pt.Latency.N, pt.Arrivals)
			}
		}
		// Latency must not improve as load rises past the first point.
		if c.Points[len(c.Points)-1].Latency.Mean < c.Points[0].Latency.Mean {
			t.Errorf("%s Q_%d: latency fell with load: %+v", c.Embedding, c.Dims, c.Points)
		}
		if c.SaturationLoad <= 0 || c.SaturationThroughput <= 0 {
			t.Errorf("%s Q_%d: no saturation point detected: %+v", c.Embedding, c.Dims, c)
		}
	}

	cube, err := measureWholeCubeSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(cube) != 2*len(olDims) {
		t.Fatalf("E27 has %d cases, want %d (theorem1+theorem2 per dim)", len(cube), 2*len(olDims))
	}
	for _, c := range cube {
		if c.Capacity <= 0 || c.Templates == 0 || c.Links == 0 || c.MeanFlitHops <= 0 {
			t.Errorf("%s Q_%d: degenerate case %+v", c.Embedding, c.Dims, c)
		}
		if len(c.Curves) != 2 || c.Curves[0].Arrival != "poisson" || c.Curves[1].Arrival != "mmpp" {
			t.Fatalf("%s Q_%d: want a poisson and an mmpp curve, got %+v", c.Embedding, c.Dims, c.Curves)
		}
		for _, curve := range c.Curves {
			checkTrafficPoints(t, fmt.Sprintf("%s Q_%d %s", c.Embedding, c.Dims, curve.Arrival), curve.Points, olLoads)
			if curve.SaturationLoad <= 0 {
				t.Errorf("%s Q_%d %s: no saturation point detected", c.Embedding, c.Dims, curve.Arrival)
			}
		}
		if c.ShardLoad <= 0 || c.Lambda <= 0 || c.Arrivals == 0 || c.Steps == 0 {
			t.Errorf("%s Q_%d: degenerate shard block %+v", c.Embedding, c.Dims, c)
		}
		if !reflect.DeepEqual(c.Shards, shardCountSweep()) {
			t.Errorf("%s Q_%d: verified shard counts %v, want %v", c.Embedding, c.Dims, c.Shards, shardCountSweep())
		}
	}

	race, err := measureStrategyRace()
	if err != nil {
		t.Fatal(err)
	}
	if len(race) != 5*len(raceDims) {
		t.Fatalf("race has %d cases, want %d (5 patterns per dim)", len(race), 5*len(raceDims))
	}
	var hotspotClean []raceCurve
	for _, c := range race {
		if c.Capacity <= 0 || c.MeanFlitHops <= 0 || c.Pairs == 0 || c.PairsFrom < c.Pairs {
			t.Errorf("race %s Q_%d: degenerate case %+v", c.Pattern, c.Dims, c)
		}
		if len(c.Fabrics) != 2 || c.Fabrics[0].Fabric != "clean" || c.Fabrics[1].Fabric != "faulty" {
			t.Fatalf("race %s Q_%d: want clean+faulty fabrics, got %+v", c.Pattern, c.Dims, c.Fabrics)
		}
		if c.Fabrics[1].DeadLinks == 0 {
			t.Errorf("race %s Q_%d: faulty fabric drew no dead links", c.Pattern, c.Dims)
		}
		for _, fab := range c.Fabrics {
			if len(fab.Curves) != len(raceStrategyNames) {
				t.Fatalf("race %s Q_%d %s: %d curves, want %d", c.Pattern, c.Dims, fab.Fabric, len(fab.Curves), len(raceStrategyNames))
			}
			for ci, cv := range fab.Curves {
				if cv.Strategy != raceStrategyNames[ci] {
					t.Errorf("race %s Q_%d %s curve %d: strategy %q, want %q", c.Pattern, c.Dims, fab.Fabric, ci, cv.Strategy, raceStrategyNames[ci])
				}
				if !cv.Replayed {
					t.Errorf("race %s Q_%d %s %s: first point not replay-verified", c.Pattern, c.Dims, fab.Fabric, cv.Strategy)
				}
				if len(cv.Points) != len(raceLoads) {
					t.Fatalf("race %s Q_%d %s %s: %d points, want %d", c.Pattern, c.Dims, fab.Fabric, cv.Strategy, len(cv.Points), len(raceLoads))
				}
				for i, pt := range cv.Points {
					if pt.Load != raceLoads[i] || pt.Arrivals != raceN {
						t.Errorf("race %s Q_%d %s %s point %d: load %g arrivals %d, want %g/%d",
							c.Pattern, c.Dims, fab.Fabric, cv.Strategy, i, pt.Load, pt.Arrivals, raceLoads[i], raceN)
					}
					if !pt.Conserved {
						t.Errorf("race %s Q_%d %s %s load %g: conservation unchecked", c.Pattern, c.Dims, fab.Fabric, cv.Strategy, pt.Load)
					}
					if pt.Delivered+pt.Failed != pt.Arrivals {
						t.Errorf("race %s Q_%d %s %s load %g: delivered %d + failed %d != %d arrivals",
							c.Pattern, c.Dims, fab.Fabric, cv.Strategy, pt.Load, pt.Delivered, pt.Failed, pt.Arrivals)
					}
					if fab.Fabric == "clean" && pt.Failed != 0 {
						t.Errorf("race %s Q_%d clean %s load %g: %d messages failed on a clean fabric",
							c.Pattern, c.Dims, cv.Strategy, pt.Load, pt.Failed)
					}
					s := pt.Latency
					if s.N == 0 || uint64(pt.Arrivals) <= s.N || !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
						t.Errorf("race %s Q_%d %s %s load %g: bad latency summary %+v",
							c.Pattern, c.Dims, fab.Fabric, cv.Strategy, pt.Load, s)
					}
				}
			}
		}
		if c.Pattern == "hotspot" {
			hotspotClean = c.Fabrics[0].Curves
		}
	}
	byName := map[string]raceCurve{}
	for _, cv := range hotspotClean {
		byName[cv.Strategy] = cv
	}
	top := len(raceLoads) - 1
	ada, dim := byName["adaptive"], byName["dimorder"]
	if len(ada.Points) == 0 || len(dim.Points) == 0 {
		t.Fatal("hotspot clean curves missing adaptive or dimorder")
	}
	if ada.Points[top].Latency.P99 >= dim.Points[top].Latency.P99 {
		t.Errorf("adaptive p99 %d not below dimorder p99 %d on the clean hotspot at load %g",
			ada.Points[top].Latency.P99, dim.Points[top].Latency.P99, raceLoads[top])
	}
}

// The -trace export is valid JSONL with the expected event kinds.
func TestWriteTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := writeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kind, _ := ev["ev"].(string)
		counts[kind]++
	}
	if counts["begin"] != 1 || counts["move"] == 0 || counts["step"] == 0 || counts["done"] == 0 {
		t.Errorf("unexpected event mix: %v", counts)
	}
}
