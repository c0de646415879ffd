package routing

import (
	"math/rand"
	"testing"

	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/obsv"
)

// Observe steers routing: after a window where one of two candidate
// first-hop links showed a deep queue, every subsequent route takes
// the quiet one first.
func TestAdaptiveObserveSteersAwayFromCongestion(t *testing.T) {
	q := hypercube.New(2)
	a := NewAdaptive(q)
	hot := q.EdgeID(0, 0)  // 0→1 along dim 0
	cold := q.EdgeID(0, 1) // 0→2 along dim 1

	rec := obsv.NewRecorderOpts(obsv.RecorderOpts{LinkQueues: true})
	rec.BeginRun(netsim.RunInfo{Messages: 1, Links: 2, LinkExt: []int{hot, cold}})
	rec.StepEnd(0, []int{9, 0})
	rec.StepEnd(1, []int{7, 1})
	a.Observe(rec)

	// Hot's observed mean is 8, cold's 0.5: the first 8 routes pay
	// cold's growing own-load (0.5+k < 8 for k ≤ 7) and avoid hot.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		route := a.Route(nil, 0, 3, rng)
		if len(route) != 2 {
			t.Fatalf("route 0→3 has %d hops, want 2", len(route))
		}
		if int(route[0]) == hot {
			t.Fatalf("trial %d: first hop crossed the congested link", trial)
		}
	}
	// Own-load accounting must eventually outweigh a stale observation:
	// after enough placements on the cold link its score passes the hot
	// link's mean queue depth of 8, and traffic spills back.
	spilled := false
	for trial := 0; trial < 50 && !spilled; trial++ {
		spilled = int(a.Route(nil, 0, 3, rng)[0]) == hot
	}
	if !spilled {
		t.Error("own-load never rebalanced against stale congestion cost")
	}
}

// Dead links learned through the FaultListener hooks are avoided while
// any live differing dimension remains, and Reset forgets them.
func TestAdaptiveAvoidsDeadLinks(t *testing.T) {
	q := hypercube.New(3)
	a := NewAdaptive(q)
	rng := rand.New(rand.NewSource(2))
	dead := q.EdgeID(0, 0)
	a.LinkDown(5, dead, true)
	for trial := 0; trial < 30; trial++ {
		route := a.Route(nil, 0, 7, rng)
		checkWalk(t, q, 0, 7, route)
		for _, id := range route {
			if int(id) == dead {
				t.Fatalf("trial %d: route crossed dead link %d", trial, dead)
			}
		}
	}
	// Transient outages are not recorded.
	a.Reset()
	a.LinkDown(5, dead, false)
	if a.dead[dead] {
		t.Error("transient LinkDown marked the link dead")
	}
	// A failed-message report is, and when every differing dimension is
	// dead the strategy still emits a minimal route (the engine will
	// account the failure).
	for d := 0; d < 3; d++ {
		a.MsgFailed(6, 0, q.EdgeID(0, d))
	}
	if got := a.Route(nil, 0, 7, rng); len(got) != 3 {
		t.Errorf("fully cut source produced %d hops, want a 3-hop minimal route", len(got))
	}
}

// The acceptance-criteria race in miniature: on hotspot traffic the
// adaptive strategy's p99 message latency beats deterministic
// dimension-order routing, which funnels half the sources through the
// hot node's highest-dimension in-link.
func TestAdaptiveBeatsDimOrderHotspotP99(t *testing.T) {
	q := hypercube.New(6)
	hot := hypercube.Node(0)
	var pairs []Pair
	for v := 1; v < q.Nodes(); v++ {
		pairs = append(pairs, Pair{Src: hypercube.Node(v), Dst: hot})
	}
	tr := &netsim.Trace{}
	for i := 0; i < 600; i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / 4, Tmpl: int32(i % len(pairs))})
	}
	p99 := func(s Strategy) int {
		h := obsv.NewHistogram(1, 1<<14)
		cfg := RunConfig{Flits: 2, Windows: 4, Seed: 17, Mode: netsim.CutThrough, Sink: h}
		res, err := Run(s, q, pairs, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredMsgs != len(tr.Arrivals) {
			t.Fatalf("%s delivered %d of %d", s.Name(), res.DeliveredMsgs, len(tr.Arrivals))
		}
		return h.Summarize().P99
	}
	dim := p99(NewDimOrder(q))
	ada := p99(NewAdaptive(q))
	if ada >= dim {
		t.Errorf("adaptive p99 %d not better than dimorder p99 %d on hotspot", ada, dim)
	}
}
