package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"multipath/internal/hypercube"
)

// Golden equivalence: the dense worklist Engine must produce
// bit-identical Results to the retained seed simulator on every
// workload class the package is used for — permutation traffic,
// width-spread paths, broadcasts, and adversarial random route sets.
func TestEngineMatchesReference(t *testing.T) {
	type load struct {
		name string
		msgs []*Message
	}
	var loads []load

	loads = append(loads,
		load{"single", []*Message{{Route: []int32{10, 20, 30}, Flits: 5}}},
		load{"contention", []*Message{
			{Route: []int32{1}, Flits: 2},
			{Route: []int32{1}, Flits: 2},
		}},
		load{"empty-and-routed", []*Message{
			{Route: nil, Flits: 3},
			{Route: []int32{7}, Flits: 1},
		}},
		load{"repeat-link", []*Message{
			{Route: []int32{4, 4}, Flits: 3},
			{Route: []int32{4}, Flits: 2},
		}},
	)

	q := hypercube.New(6)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		perm := RandomPermutation(rng, q.Nodes())
		loads = append(loads, load{"perm", PermutationMessages(q, perm, 2+3*trial)})
	}

	// Width-spread embedding paths now come from internal/traffic (which
	// imports this package); traffic's tests re-run this equivalence
	// check on that workload class.
	bm, err := BroadcastMessages(q, 96, true)
	if err != nil {
		t.Fatal(err)
	}
	loads = append(loads, load{"broadcast", bm})

	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		count := 1 + r.Intn(14)
		msgs := make([]*Message, count)
		for i := range msgs {
			route := make([]int32, r.Intn(6))
			for h := range route {
				route[h] = int32(r.Intn(9))
			}
			msgs[i] = &Message{Route: route, Flits: 1 + r.Intn(7)}
		}
		loads = append(loads, load{"random", msgs})
	}

	for _, ld := range loads {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			ref, err := SimulateReference(ld.msgs, mode)
			if err != nil {
				t.Fatalf("%s/%v: reference: %v", ld.name, mode, err)
			}
			got, err := Simulate(ld.msgs, mode)
			if err != nil {
				t.Fatalf("%s/%v: engine: %v", ld.name, mode, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s/%v: engine %+v != reference %+v", ld.name, mode, got, ref)
			}
		}
	}
}

// A single Engine reused across runs of different shapes must behave
// exactly like a fresh one (scratch reset, link renumbering, pooling).
func TestEngineReuseAcrossRuns(t *testing.T) {
	e := newEngine()
	q := hypercube.New(5)
	rng := rand.New(rand.NewSource(3))
	workloads := [][]*Message{
		PermutationMessages(q, RandomPermutation(rng, q.Nodes()), 8),
		{{Route: []int32{999999}, Flits: 2}}, // sparse id after dense run
		{{Route: []int32{1, 2, 3}, Flits: 4}, {Route: nil, Flits: 1}},
		PermutationMessages(q, RandomPermutation(rng, q.Nodes()), 3),
	}
	for i, msgs := range workloads {
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			want, err := SimulateReference(msgs, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := simulateOn(e, msgs, mode)
			if err != nil {
				t.Fatalf("workload %d: %v", i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workload %d/%v: reused engine %+v != %+v", i, mode, got, want)
			}
		}
	}
}

// MaxLinkQueue hand-computed contention example. Definition: the
// largest number of messages simultaneously enqueued on any one link.
//
// A heads straight for link 1 with 2 flits. B and C reach link 1 after
// one hop each (links 2 and 3). Step 1 moves A's first flit plus B and
// C across their first hops; the arrivals enqueue B and C behind A on
// link 1, so its queue holds three messages at once — even though A
// drains one flit per step and leaves at step 2. The peak is 3 under
// both switching modes.
func TestMaxLinkQueueHandComputed(t *testing.T) {
	mk := func() []*Message {
		return []*Message{
			{Route: []int32{1}, Flits: 2},    // A
			{Route: []int32{2, 1}, Flits: 1}, // B
			{Route: []int32{3, 1}, Flits: 1}, // C
		}
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		r, err := Simulate(mk(), mode)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxLinkQueue != 3 {
			t.Errorf("%v: MaxLinkQueue %d, want 3 (A, B, C together on link 1)", mode, r.MaxLinkQueue)
		}
		// A: steps 1-2 on link 1; B, C serialize behind it: 4 steps.
		if r.Steps != 4 {
			t.Errorf("%v: steps %d, want 4", mode, r.Steps)
		}
		if r.DeliveredMsgs != 3 {
			t.Errorf("%v: delivered %d", mode, r.DeliveredMsgs)
		}
	}
}

// Livelock-guard regression: a deliberately contended route set — many
// long messages funnelled down one shared chain — must complete well
// under the step limit, and the limit derived from flits × (route
// length + messages) must undercut the seed's 4·Σflits·hops bound on
// this uniform shape.
func TestStepLimitContendedCompletes(t *testing.T) {
	const k, flits, hops = 32, 8, 8
	chain := make([]int32, hops)
	for i := range chain {
		chain[i] = int32(i)
	}
	msgs := make([]*Message, k)
	for i := range msgs {
		msgs[i] = &Message{Route: chain, Flits: flits}
	}
	totalFlits := k * flits
	limit := stepLimit(totalFlits, hops, k)
	seedLimit := 4*totalFlits*hops + 4*k + 16
	if limit >= seedLimit {
		t.Errorf("new limit %d not tighter than seed limit %d", limit, seedLimit)
	}
	for _, mode := range []Mode{StoreAndForward, CutThrough} {
		r, err := Simulate(msgs, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.Steps > limit {
			t.Errorf("%v: %d steps exceeds limit %d", mode, r.Steps, limit)
		}
		if r.DeliveredMsgs != k {
			t.Errorf("%v: delivered %d of %d", mode, r.DeliveredMsgs, k)
		}
	}
}

func TestSimulateBatchMatchesSerial(t *testing.T) {
	q := hypercube.New(6)
	rng := rand.New(rand.NewSource(77))
	var jobs []BatchJob
	for i := 0; i < 24; i++ {
		mode := CutThrough
		if i%2 == 1 {
			mode = StoreAndForward
		}
		jobs = append(jobs, BatchJob{
			Msgs: PermutationMessages(q, RandomPermutation(rng, q.Nodes()), 1+i%5),
			Mode: mode,
		})
	}
	got, err := SimulateBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		want, err := Simulate(job.Msgs, job.Mode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("job %d: batch %+v != serial %+v", i, got[i], want)
		}
	}
}

func TestSimulateBatchEmptyAndError(t *testing.T) {
	if res, err := SimulateBatch(nil); err != nil || len(res) != 0 {
		t.Errorf("empty batch: %v %v", res, err)
	}
	jobs := []BatchJob{
		{Msgs: []*Message{{Route: []int32{1}, Flits: 1}}, Mode: CutThrough},
		{Msgs: []*Message{{Route: []int32{1}, Flits: 0}}, Mode: CutThrough},
	}
	res, err := SimulateBatch(jobs)
	if err == nil {
		t.Fatal("zero-flit job accepted")
	}
	if res[0] == nil {
		t.Error("healthy job result dropped on sibling failure")
	}
	if _, err := SimulateBatch([]BatchJob{
		{Msgs: []*Message{{Route: []int32{1}, Flits: 1}}, Mode: CutThrough, Shards: -2},
	}); err == nil {
		t.Error("negative shard count accepted")
	}
}
