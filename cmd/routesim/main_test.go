package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestRunAllStrategies(t *testing.T) {
	if err := run(4, 16, 42, "all", false, "", 1, 4, openLoopCfg{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllStrategiesSharded(t *testing.T) {
	if err := run(4, 16, 42, "all", false, "", 4, 4, openLoopCfg{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleStrategy(t *testing.T) {
	for _, s := range []string{"ecube-sf", "ecube-ct", "ecube-wh", "valiant", "ccc"} {
		if err := run(4, 8, 1, s, false, "", 1, 4, openLoopCfg{}); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestRunObservedWithTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := run(4, 8, 7, "all", true, trace, 1, 4, openLoopCfg{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Every line must be valid JSON with an "ev" field; all five
	// strategies run under the shared writer, so runs 1..5 appear.
	runs := map[int]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		lines++
		var ev struct {
			Ev  string `json:"ev"`
			Run int    `json:"run"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if ev.Ev == "" {
			t.Fatalf("line %d: missing ev field", lines)
		}
		runs[ev.Run] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty trace")
	}
	for r := 1; r <= 5; r++ {
		if !runs[r] {
			t.Errorf("no events for run %d (one per strategy expected)", r)
		}
	}
}

func TestRunZooStrategies(t *testing.T) {
	// The routing strategy zoo is reachable by explicit name, closed-
	// and open-loop; adaptive's open loop exercises the windowed
	// feedback path (with and without faults).
	for _, s := range []string{"dimorder", "minimal", "adaptive"} {
		if err := run(4, 8, 1, s, false, "", 1, 4, openLoopCfg{}); err != nil {
			t.Errorf("%s closed-loop: %v", s, err)
		}
		ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 200}
		if err := run(4, 8, 1, s, true, "", 1, 4, ol); err != nil {
			t.Errorf("%s open-loop: %v", s, err)
		}
	}
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 200, faultP: 0.05, faultSeed: 3}
	if err := run(4, 8, 1, "adaptive", false, "", 1, 4, ol); err != nil {
		t.Errorf("adaptive faulty open-loop: %v", err)
	}
}

func TestRunRejectsUnknownStrategy(t *testing.T) {
	if err := run(4, 8, 1, "teleport", false, "", 1, 4, openLoopCfg{}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunOpenLoopProcesses(t *testing.T) {
	for _, p := range []string{"poisson", "mmpp", "pareto", "lognormal"} {
		ol := openLoopCfg{process: p, rate: 0.2, arrivals: 200}
		if err := run(4, 8, 3, "ecube-ct", false, "", 1, 4, ol); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestRunOpenLoopShardedObserved(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "ol.jsonl")
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 200}
	if err := run(4, 8, 3, "all", true, trace, 4, 4, ol); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(trace); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
}

func TestRunOpenLoopRejectsBadProcess(t *testing.T) {
	ol := openLoopCfg{process: "uniform", rate: 0.2, arrivals: 10}
	if err := run(4, 8, 3, "ecube-ct", false, "", 1, 4, ol); err == nil {
		t.Error("unknown arrival process accepted")
	}
	ol = openLoopCfg{process: "poisson", rate: -1, arrivals: 10}
	if err := run(4, 8, 3, "ecube-ct", false, "", 1, 4, ol); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestRunRejectsBadN(t *testing.T) {
	if err := run(3, 8, 1, "all", false, "", 1, 4, openLoopCfg{}); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestRunRejectsNegativeShards(t *testing.T) {
	if err := run(4, 8, 1, "all", false, "", -1, 4, openLoopCfg{}); err == nil {
		t.Error("negative -shards accepted")
	}
}

func TestRunRejectsZeroWindows(t *testing.T) {
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 50}
	if err := run(2, 4, 1, "adaptive", false, "", 1, 0, ol); err == nil {
		t.Error("-windows 0 accepted")
	}
}

func TestRunOpenLoopFaulty(t *testing.T) {
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 200, faultP: 0.05, faultSeed: 3}
	if err := run(4, 8, 7, "ecube-ct", false, "", 2, 4, ol); err != nil {
		t.Fatalf("open-loop faulty run: %v", err)
	}
	ol.faultBurst = "16:48"
	if err := run(4, 8, 7, "ecube-ct", false, "", 2, 4, ol); err != nil {
		t.Fatalf("open-loop burst run: %v", err)
	}
}

func TestRunRejectsBadFaultFlags(t *testing.T) {
	// Fault flags require the open-loop mode.
	if err := run(4, 8, 1, "ecube-ct", false, "", 1, 4, openLoopCfg{faultP: 0.1}); err == nil {
		t.Fatal("closed-loop -fault-p accepted")
	}
	if err := run(4, 8, 1, "ecube-ct", false, "", 1, 4, openLoopCfg{faultBurst: "16:48"}); err == nil {
		t.Fatal("closed-loop -fault-burst accepted")
	}
	ol := openLoopCfg{process: "poisson", rate: 0.2, arrivals: 10}
	bad := ol
	for _, p := range []float64{1.5, math.NaN()} {
		bad.faultP = p
		if err := run(4, 8, 1, "ecube-ct", false, "", 1, 4, bad); err == nil {
			t.Fatalf("-fault-p %v accepted", p)
		}
	}
	bad = ol
	bad.faultBurst = "16:48"
	if err := run(4, 8, 1, "ecube-ct", false, "", 1, 4, bad); err == nil {
		t.Fatal("-fault-burst without -fault-p accepted")
	}
	bad = ol
	bad.faultP, bad.faultBurst = 0.1, "48:16"
	if err := run(4, 8, 1, "ecube-ct", false, "", 1, 4, bad); err == nil {
		t.Fatal("inverted burst window accepted")
	}
}
