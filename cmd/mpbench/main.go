// Command mpbench regenerates every experiment table in EXPERIMENTS.md
// and checks it against the file: for each quantitative claim of
// Greenberg & Bhatt it prints the paper's predicted value next to the
// value measured on this build, then exits 1 if any printed table
// differs from its section of EXPERIMENTS.md in the working directory.
//
// Every table is deterministic: the suites run concurrently across
// GOMAXPROCS workers, but each experiment's simulations are seeded and
// the output order is fixed, so a parallel run prints exactly what a
// serial one does. To change a table on purpose, paste the printed
// block into EXPERIMENTS.md and rerun.
//
// Usage:
//
//	mpbench                  # run every experiment and check EXPERIMENTS.md
//	mpbench -run E2          # run and check one experiment by id
//	mpbench -list            # list experiment ids
//	mpbench -parallel=false  # force serial execution
//	mpbench -trace t.jsonl   # export a JSONL event trace of a reference run
//	mpbench -cpuprofile cpu.prof -memprofile mem.prof  # pprof the run
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
)

// table is one experiment's output.
type table struct {
	id      string
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

func (t *table) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) note(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// render returns the table's lines as EXPERIMENTS.md holds them,
// without the blank lines between: the "### id — title" heading, the
// padded `|` lines, then one `>` line per note. print and the
// EXPERIMENTS.md check both read this one rendering.
func (t *table) render() []string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	lines := []string{fmt.Sprintf("### %s — %s", t.id, t.title), line(t.headers)}
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	lines = append(lines, line(seps))
	for _, r := range t.rows {
		lines = append(lines, line(r))
	}
	for _, n := range t.notes {
		lines = append(lines, "> "+n)
	}
	return lines
}

// print writes the table as it appears in EXPERIMENTS.md.
func (t *table) print(w io.Writer) {
	lines := t.render()
	fmt.Fprintf(w, "\n%s\n\n", lines[0])
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, ">") {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, l)
	}
}

type experiment struct {
	id    string
	title string
	run   func() (*table, error)
}

// outcome is one experiment's completed run.
type outcome struct {
	exp experiment
	tab *table
	err error
}

func experimentList() []experiment {
	return []experiment{
		{"E1", "Gray-code baseline: m-packet cost is m (Fig. 1, §2)", runE1},
		{"E2", "Theorem 1: width ~n/2, synchronized cost 3, load 1", runE2},
		{"E3", "Theorem 2: load 2, cost 3, full link use at n≡0 mod 4", runE3},
		{"E4", "Lemma 3: width ≤ ⌊n/2⌋ at cost 3", runE4},
		{"E5", "Grid relaxation phase: Θ(M/(N·logN)) vs Θ(M/N) (§2, §8.3)", runE5},
		{"E6", "Corollaries 1-2: k-axis grids, squaring", runE6},
		{"E7", "Lemma 1 substrate: Hamiltonian decompositions of Q_n", runE7},
		{"E8", "Lemma 4: CCC in Q_{n+⌈log n⌉}, dilation 1 (even) / 2 (odd)", runE8},
		{"E9", "Theorem 3: n CCC copies, edge-congestion 2 vs naive n/log n", runE9},
		{"E10", "Theorem 4: X(G) width-n, n-packet cost c+2δ", runE10},
		{"E11", "Theorem 5 & §6.2: complete and arbitrary binary trees", runE11},
		{"E12", "§7: bit-serial routing, Θ(nM) vs O(M) on CCC copies", runE12},
		{"E13", "IDA fault tolerance over disjoint paths (§1)", runE13},
		{"E14", "Lemma 9: large-copy CCC/FFT/butterfly", runE14},
		{"E15", "§8.2: multi-path vs multi-copy vs large-copy", runE15},
		{"E16", "Ablation: moment labeling vs naive cycle assignment", runE16},
		{"E17", "Switching modes: store-and-forward vs cut-through vs wormhole", runE17},
		{"E18", "Adversarial permutations: e-cube vs Valiant random intermediate", runE18},
		{"E19", "Broadcast over Lemma 1's Hamiltonian cycles", runE19},
		{"E20", "Scalability: build+verify at large n", runE20},
		{"E21", "§1 constant-pinout model: wide grid vs narrow hypercube", runE21},
		{"E22", "Naive per-edge widening vs Theorem 1's coordination", runE22},
		{"E23", "Measured fault tolerance: single path vs IDA under link faults", runE23},
		{"E24", "Observability: latency and queue-depth distributions via probes", runE24},
		{"E25", "Sharded engine: partitioned simulation of million-node traffic", runE25},
		{"E26", "Open-loop steady state: latency vs offered load, saturation throughput", runE26},
		{"E27", "Sharded open loop: whole-cube saturation sweeps at million-node scale", runE27},
		{"E28", "Self-healing transport: degradation curves under live faults", runE28},
		{"E29", "Strategy race: the routing zoo vs the paper's multipath construction", runE29},
	}
}

// selectExperiments returns every experiment when id is empty, else the
// one whose id matches case-insensitively; an id that matches nothing
// is an error, so a typo cannot pass the check by checking nothing.
func selectExperiments(exps []experiment, id string) ([]experiment, error) {
	if id == "" {
		return exps, nil
	}
	for _, e := range exps {
		if strings.EqualFold(id, e.id) {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("no experiment %q (mpbench -list shows the ids)", id)
}

// runExperiments executes the given suites — serially in order, or
// across GOMAXPROCS workers — and returns outcomes in input order so
// downstream printing is deterministic either way.
func runExperiments(exps []experiment, parallel bool) []outcome {
	outs := make([]outcome, len(exps))
	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
		if workers > len(exps) {
			workers = len(exps)
		}
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(exps) {
					return
				}
				tab, err := exps[i].run()
				if tab != nil {
					tab.id, tab.title = exps[i].id, exps[i].title
				}
				outs[i] = outcome{exp: exps[i], tab: tab, err: err}
			}
		}()
	}
	wg.Wait()
	return outs
}

// section is one "### En — title" block of EXPERIMENTS.md: its
// heading and the `|` and `>` lines under it, with their line numbers.
// Every other line — prose above, between or below the table — is
// ignored.
type section struct {
	lines []string
	nums  []int
}

// parseSections indexes doc's "### " sections by their first word, the
// experiment id. A section runs to the next markdown heading.
func parseSections(doc string) map[string]*section {
	secs := map[string]*section{}
	var cur *section
	for i, l := range strings.Split(doc, "\n") {
		if strings.HasPrefix(l, "#") {
			cur = nil
			if f := strings.Fields(l); len(f) > 1 && f[0] == "###" && secs[f[1]] == nil {
				cur = &section{}
				secs[f[1]] = cur
			}
		}
		if cur != nil && (strings.HasPrefix(l, "#") || strings.HasPrefix(l, "|") || strings.HasPrefix(l, ">")) {
			cur.lines = append(cur.lines, l)
			cur.nums = append(cur.nums, i+1)
		}
	}
	return secs
}

// diffTables compares each table with its section of doc and returns
// one message per differing table, naming the first differing line.
func diffTables(doc string, tabs []*table) []string {
	secs := parseSections(doc)
	var diffs []string
	for _, t := range tabs {
		want := t.render()
		s := secs[t.id]
		if s == nil {
			diffs = append(diffs, fmt.Sprintf("%s: EXPERIMENTS.md has no %q section", t.id, "### "+t.id))
			continue
		}
		i := 0
		for i < len(want) && i < len(s.lines) && want[i] == s.lines[i] {
			i++
		}
		switch {
		case i == len(want) && i == len(s.lines):
		case i == len(s.lines):
			diffs = append(diffs, fmt.Sprintf("%s: EXPERIMENTS.md:%d: file has no more lines after this one, mpbench printed %q",
				t.id, s.nums[i-1], want[i]))
		case i == len(want):
			diffs = append(diffs, fmt.Sprintf("%s: EXPERIMENTS.md:%d: file has %q, mpbench printed no more lines",
				t.id, s.nums[i], s.lines[i]))
		default:
			diffs = append(diffs, fmt.Sprintf("%s: EXPERIMENTS.md:%d: file has %q, mpbench printed %q",
				t.id, s.nums[i], s.lines[i], want[i]))
		}
	}
	return diffs
}

func main() {
	os.Exit(run())
}

func run() int {
	runID := flag.String("run", "", "run only the experiment with this id (e.g. E2)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Bool("parallel", true, "run experiment suites concurrently (output order is unchanged)")
	tracePath := flag.String("trace", "", "write a JSONL event trace of the Theorem 1 (n=8) width-path run here")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run here")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) here")
	flag.Parse()

	exps := experimentList()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return 0
	}
	selected, err := selectExperiments(exps, *runID)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	outs := runExperiments(selected, *parallel)
	fmt.Println("# mpbench — paper-vs-measured experiment tables")
	failed := 0
	var tabs []*table
	for _, o := range outs {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", o.exp.id, o.err)
			failed++
			continue
		}
		o.tab.print(os.Stdout)
		tabs = append(tabs, o.tab)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			failed++
		} else {
			fmt.Printf("\nwrote %s (JSONL event trace of the Theorem 1 n=8 width-path run)\n", *tracePath)
		}
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		fmt.Fprintf(os.Stderr, "check: %v (run mpbench from the repository root)\n", err)
		return 1
	}
	if diffs := diffTables(string(doc), tabs); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, d)
		}
		fmt.Fprintf(os.Stderr, "%d of %d tables differ from EXPERIMENTS.md; to change one on purpose, paste its printed block into the file and rerun\n",
			len(diffs), len(tabs))
		failed++
	}
	if failed > 0 {
		return 1
	}
	return 0
}
