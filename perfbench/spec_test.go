package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesProgram checks that BENCHMARK.json lists exactly the
// workloads and metrics the program reports, in order, with their units.
func TestSpecMatchesProgram(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, s.Workloads[i].Name, w.name)
		}
	}
	p := phase{rounds: []roundResult{{wall: time.Second, ops: 1}}}
	check := func(kind string, want []specMetric, got []metric) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(want), len(got))
		}
		for i := range min(len(want), len(got)) {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd(record{SetupS: []float64{1}}, p))
	tr := newTracer()
	tr.rounds = 1
	check("per_layer", s.PerLayer, perLayer(tr, p, p))
}
