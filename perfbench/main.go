// Command perfbench is the benchmark of the multipath module. One
// process runs one named workload through the library's public entry
// points, checks every simulated output, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	perfbench -workload drain -seed 1 -seconds 20 -trace 0
//
// A run builds the workload's inputs setupReps times (the median is the
// input part of setup_s), runs one untimed warm-up round, then repeats
// the workload's round — a fixed list of ops, each a closed-loop call
// sequence into the library — until the time budget is spent. With
// -trace 1 it spends half the budget untraced and half traced, and
// reports per-layer metrics from spans recorded around every call.
// perfbench/run.py builds this program and is the command to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// op is one closed-loop step of a round: a call sequence into the
// library whose outputs it checks. A non-nil error counts the op as
// failed.
type op struct {
	name string
	run  func(b *bench) error
}

// workload builds its inputs from the seed and returns one round's ops.
type workload struct {
	name  string
	setup func(seed int64) ([]op, error)
}

var workloads = []workload{
	{"certify", setupCertify},
	{"drain", setupDrain},
	{"steady", setupSteady},
	{"faulty", setupFaulty},
}

// setupReps is how often a run builds its inputs; setup_s takes the
// median so that one slow build does not move it. minRounds is the
// fewest rounds a phase runs, however long they take.
const (
	setupReps = 3
	minRounds = 2
)

// derive returns the seed of a run's k-th random input (splitmix64), so
// every input drawn from one workload seed is independent of the others.
func derive(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Tree       string `json:"tree"`
	DelayLayer string `json:"delay_layer,omitempty"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the full result written to the -out directory: the printed
// result plus everything needed to compare and replay it.
type record struct {
	Env        env       `json:"env"`
	Digest     string    `json:"digest"`
	Errors     []string  `json:"errors,omitempty"`
	SetupS     []float64 `json:"setup_inputs_s"`
	WarmupS    float64   `json:"warmup_s"`
	RoundS     []float64 `json:"round_s"`
	TracedS    []float64 `json:"traced_round_s,omitempty"`
	OpsPerRnd  int       `json:"ops_per_round"`
	HopsPerRnd int64     `json:"flit_hops_per_round"`
	Result     result    `json:"result"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: certify, drain, steady or faulty")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "time budget of the measured rounds")
		trace   = flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
		out     = flag.String("out", "", "directory for the full result record (empty: none)")
		spans   = flag.String("spans", "", "directory for the span file of a traced run (empty: none)")
		commit  = flag.String("commit", "unknown", "commit of the measured code")
		tree    = flag.String("tree", "unknown", "digest of the measured source tree")
		delayL  = flag.String("delay-layer", "", "add 10% to every call into this layer (compare self-test)")
	)
	flag.Parse()
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload certify|drain|steady|faulty, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if *delayL != "" && !slices.Contains(layers, *delayL) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown layer %q (have %v)\n", *delayL, layers)
		return 2
	}
	// Never run more workers than CPUs: GOMAXPROCS bounds the fan-out
	// of SimulateBatch and of core's parallel passes.
	w := workloads[i]
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	rec := record{Env: env{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: *commit, Tree: *tree, DelayLayer: *delayL,
	}}

	var ops []op
	for r := 0; r < setupReps; r++ {
		start := time.Now()
		var err error
		if ops, err = w.setup(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", w.name, err)
			return 1
		}
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
	}
	b := &bench{delayLayer: *delayL}
	warm := runRound(ops, b)
	rec.WarmupS = warm.wall.Seconds()
	rec.OpsPerRnd, rec.HopsPerRnd = len(ops), warm.hops

	budget := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		budget /= 2
	}
	plain := runPhase(ops, b, budget, minRounds)
	var traced phase
	if *trace == 1 {
		b.tr = newTracer()
		traced = runPhase(ops, b, budget, minRounds)
	}

	// Correctness: every op passed its checks, and every round of every
	// phase reproduced the warm-up round's simulated statistics.
	all := append(append([]roundResult{warm}, plain.rounds...), traced.rounds...)
	res := result{Correct: true, Metrics: map[string]value{}}
	for _, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
		rec.Errors = append(rec.Errors, r.errs...)
		if r.digest != warm.digest {
			res.Correct = false
			rec.Errors = append(rec.Errors, "simulated statistics differ between rounds of one run")
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	if len(rec.Errors) > 10 {
		rec.Errors = rec.Errors[:10]
	}
	rec.Digest = warm.digest
	for _, r := range plain.rounds {
		rec.RoundS = append(rec.RoundS, r.wall.Seconds())
	}

	if *trace == 0 {
		for _, m := range endToEnd(rec, plain) {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
	} else {
		for _, r := range traced.rounds {
			rec.TracedS = append(rec.TracedS, r.wall.Seconds())
		}
		for _, m := range perLayer(b.tr, plain, traced) {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
	}
	rec.Result = res

	report(rec, res)
	if *out != "" {
		if err := writeJSON(filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace)), rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if *spans != "" && b.tr != nil {
		if err := b.tr.write(filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd derives the untraced run's metrics. error_share is not among
// them: it is failed/attempted of the printed result, and a metric that
// reads 0 cannot carry a relative bound.
func endToEnd(rec record, p phase) []metric {
	walls := make([]float64, len(p.rounds))
	rates := make([]float64, len(p.rounds))
	peaks := make([]float64, len(p.rounds))
	ops := 0
	for i, r := range p.rounds {
		walls[i] = r.wall.Seconds()
		rates[i] = float64(r.hops) / walls[i]
		peaks[i] = float64(r.peakHeap) / 1e6
		ops += r.ops
	}
	return []metric{
		{"setup_s", "s", median(rec.SetupS) + rec.WarmupS},
		{"wall_s", "s", median(walls)},
		{"flit_hops_per_s", "flit-hops/s", median(rates)},
		{"allocs_per_op", "count", float64(p.mallocs) / float64(ops)},
		{"peak_heap_mb", "MB", slices.Max(peaks)},
	}
}

// report prints the human-readable lines that precede the result line.
func report(rec record, res result) {
	e := rec.Env
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d num_cpu=%d go=%s commit=%s tree=%s\n",
		e.Workload, e.Seed, e.Seconds, e.Trace, e.GoMaxProcs, e.NumCPU, e.GoVersion, e.Commit, e.Tree)
	if e.DelayLayer != "" {
		fmt.Printf("# delay injected into layer %s\n", e.DelayLayer)
	}
	fmt.Printf("# rounds=%d ops/round=%d flit-hops/round=%d digest=%s\n",
		len(rec.RoundS)+len(rec.TracedS), rec.OpsPerRnd, rec.HopsPerRnd, rec.Digest)
	fmt.Printf("# %-34s %.6g fraction\n", "error_share", float64(res.Failed)/float64(res.Attempted))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("# %-34s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, msg := range rec.Errors {
		fmt.Printf("# error: %s\n", msg)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
