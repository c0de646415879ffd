package traffic

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"multipath/internal/ccc"
	"multipath/internal/core"
	"multipath/internal/cycles"
	"multipath/internal/faults"
	"multipath/internal/hamdecomp"
	"multipath/internal/hypercube"
	"multipath/internal/netsim"
	"multipath/internal/routing"
	"multipath/internal/xproduct"
)

// ids32 converts PathEdgeIDs output to the route type.
func ids32(ids []int) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

// The per-path golden models below are the template builders as they
// stood before routes became spans of one arena: one PathEdgeIDs call,
// and one route slice, per path. The arena builders must reproduce
// them id for id, in the same order, with the same flits and groups.

func widthPathMessagesPerPath(e *core.Embedding, flits int) ([]*netsim.Message, error) {
	var msgs []*netsim.Message
	for _, ps := range e.Paths {
		w := len(ps)
		base := flits / w
		extra := flits % w
		for j, p := range ps {
			f := base
			if j < extra {
				f++
			}
			if f == 0 || len(p) < 2 {
				continue
			}
			ids, err := e.Host.PathEdgeIDs(p)
			if err != nil {
				return nil, err
			}
			msgs = append(msgs, &netsim.Message{Route: ids32(ids), Flits: f})
		}
	}
	return msgs, nil
}

func pathTemplatesPerPath(e *core.Embedding, edges []int, flits int) ([]*netsim.Message, [][]int32, error) {
	if edges == nil {
		edges = make([]int, len(e.Paths))
		for i := range edges {
			edges[i] = i
		}
	}
	var tmpls []*netsim.Message
	groups := make([][]int32, len(edges))
	for b, ge := range edges {
		ps := e.Paths[ge]
		group := make([]int32, len(ps))
		for j, p := range ps {
			var ids []int
			if len(p) >= 2 {
				var err error
				if ids, err = e.Host.PathEdgeIDs(p); err != nil {
					return nil, nil, err
				}
			}
			group[j] = int32(len(tmpls))
			tmpls = append(tmpls, &netsim.Message{Route: ids32(ids), Flits: flits})
		}
		groups[b] = group
	}
	return tmpls, groups, nil
}

func disjointPathTemplatesPerPath(q *hypercube.Q, pairs []routing.Pair, flits int) ([]*netsim.Message, int, error) {
	w := min(q.Dims(), flits)
	var tmpls []*netsim.Message
	base, extra := flits/w, flits%w
	for _, pr := range pairs {
		var paths []core.Path
		if pr.Src != pr.Dst {
			paths = core.DisjointPaths(q, pr.Src, pr.Dst)
		}
		for j := 0; j < w; j++ {
			f := base
			if j < extra {
				f++
			}
			var ids []int
			if j < len(paths) && len(paths[j]) >= 2 {
				var err error
				if ids, err = q.PathEdgeIDs(paths[j]); err != nil {
					return nil, 0, err
				}
			}
			tmpls = append(tmpls, &netsim.Message{Route: ids32(ids), Flits: f})
		}
	}
	return tmpls, w, nil
}

// sameTemplates fails unless got and want list the same routes and
// flits in the same order, and every route of got is capped, so an
// append to it cannot overwrite the next route in the arena.
func sameTemplates(t *testing.T, name string, got, want []*netsim.Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d templates, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Flits != want[i].Flits || !slices.Equal(got[i].Route, want[i].Route) {
			t.Fatalf("%s: template %d is %d flits on %v, want %d flits on %v",
				name, i, got[i].Flits, got[i].Route, want[i].Flits, want[i].Route)
		}
		if cap(got[i].Route) != len(got[i].Route) {
			t.Fatalf("%s: template %d's route has capacity %d past its %d ids", name, i, cap(got[i].Route), len(got[i].Route))
		}
	}
}

// theorem4 builds Theorem 4's embedding of the induced cross product of
// Q_a's Hamiltonian cycle decomposition, hosted in Q_2a.
func theorem4(a int) (*core.Embedding, error) {
	dec, err := hamdecomp.Decompose(a)
	if err != nil {
		return nil, err
	}
	q := hypercube.New(a)
	var copies []*core.Embedding
	for _, cyc := range dec.Directed() {
		e, err := core.DirectCycleEmbedding(q, cyc)
		if err != nil {
			return nil, err
		}
		copies = append(copies, e)
	}
	_, e, err := xproduct.Theorem4(copies)
	return e, err
}

// The embedding builders reproduce the per-path golden models on
// Theorems 1, 2 and 4 in Q_8.
func TestEmbeddingTemplatesMatchPerPath(t *testing.T) {
	builds := []struct {
		name  string
		build func() (*core.Embedding, error)
	}{
		{"T1", func() (*core.Embedding, error) { return cycles.Theorem1(8) }},
		{"T2", func() (*core.Embedding, error) { return cycles.Theorem2(8) }},
		{"T4", func() (*core.Embedding, error) { return theorem4(4) }},
	}
	for _, b := range builds {
		e, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for _, flits := range []int{1, 2, 3, 16, 17} {
			name := fmt.Sprintf("%s WidthPathMessages flits=%d", b.name, flits)
			got, err := WidthPathMessages(e, flits)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := widthPathMessagesPerPath(e, flits)
			if err != nil {
				t.Fatalf("%s: golden model: %v", name, err)
			}
			sameTemplates(t, name, got, want)
		}
		m := len(e.Paths)
		for _, edges := range [][]int{nil, {m - 1, 0, 3, 3}} {
			name := fmt.Sprintf("%s PathTemplates edges=%v", b.name, edges)
			got, groups, err := PathTemplates(e, edges, 5)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, wantGroups, err := pathTemplatesPerPath(e, edges, 5)
			if err != nil {
				t.Fatalf("%s: golden model: %v", name, err)
			}
			sameTemplates(t, name, got, want)
			if len(groups) != len(wantGroups) {
				t.Fatalf("%s: %d groups, want %d", name, len(groups), len(wantGroups))
			}
			for g := range groups {
				if !slices.Equal(groups[g], wantGroups[g]) {
					t.Fatalf("%s: group %d is %v, want %v", name, g, groups[g], wantGroups[g])
				}
			}
		}
	}
}

// DisjointPathTemplates reproduces its per-path golden model on every
// transpose pair of Q_8 plus a self-pair, across piece counts.
func TestDisjointPathTemplatesMatchPerPath(t *testing.T) {
	q := hypercube.New(8)
	pairs, err := TransposePairs(q)
	if err != nil {
		t.Fatal(err)
	}
	pairs = append(pairs, routing.Pair{Src: 5, Dst: 5})
	for _, flits := range []int{1, 3, 8, 11} {
		got, w, err := DisjointPathTemplates(q, pairs, flits)
		if err != nil {
			t.Fatal(err)
		}
		want, wantW, err := disjointPathTemplatesPerPath(q, pairs, flits)
		if err != nil {
			t.Fatal(err)
		}
		if w != wantW {
			t.Fatalf("flits=%d: width %d, want %d", flits, w, wantW)
		}
		sameTemplates(t, fmt.Sprintf("flits=%d", flits), got, want)
	}
}

// cloneRoutes deep-copies every route of msgs.
func cloneRoutes(msgs []*netsim.Message) [][]int32 {
	out := make([][]int32, len(msgs))
	for i, m := range msgs {
		out[i] = slices.Clone(m.Route)
	}
	return out
}

// Templates alias the route cache. Editing e.Paths makes the next
// metric call rebuild the cache into a fresh arena, so the routes of
// templates built before the edit keep their ids.
func TestTemplatesSurvivePathEdits(t *testing.T) {
	e, err := cycles.Theorem1(8)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := WidthPathMessages(e, 16)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := PathTemplates(e, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantWM, wantPT := cloneRoutes(wm), cloneRoutes(pt)
	before, _, _, err := e.RouteArena()
	if err != nil {
		t.Fatal(err)
	}

	// Swap guest edge 0's first two paths: still a valid embedding, but
	// a different route cache.
	e.Paths[0][0], e.Paths[0][1] = e.Paths[0][1], e.Paths[0][0]
	if _, err := e.Width(); err != nil {
		t.Fatal(err)
	}
	after, _, _, err := e.RouteArena()
	if err != nil {
		t.Fatal(err)
	}
	if &after[0] == &before[0] {
		t.Fatal("editing e.Paths did not rebuild the route cache")
	}
	for i, m := range wm {
		if !slices.Equal(m.Route, wantWM[i]) {
			t.Fatalf("width-path template %d changed after the rebuild: %v, was %v", i, m.Route, wantWM[i])
		}
	}
	for i, m := range pt {
		if !slices.Equal(m.Route, wantPT[i]) {
			t.Fatalf("path template %d changed after the rebuild: %v, was %v", i, m.Route, wantPT[i])
		}
	}
	// Templates built now follow the edit.
	fresh, _, err := PathTemplates(e, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fresh[0].Route, wantPT[1]) || !slices.Equal(fresh[1].Route, wantPT[0]) {
		t.Fatal("templates built after the edit do not follow it")
	}
}

// No simulator writes a route: after every closed-loop, fault-aware and
// open-loop entry point, single-shard and sharded, has run on templates
// that alias the route cache, the cache's id arena is byte-identical.
func TestSimulationsLeaveRouteArenaUntouched(t *testing.T) {
	e, err := cycles.Theorem1(6)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, _, err := e.RouteArena()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(ids)
	wm, err := WidthPathMessages(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	pt, _, err := PathTemplates(e, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.NewSchedule().FailLink(int(wm[0].Route[0]), 2).FailLinkTransient(int(wm[1].Route[0]), 1, 4)
	tr := &netsim.Trace{}
	for i := 0; i < 3*len(pt); i++ {
		tr.Arrivals = append(tr.Arrivals, netsim.Arrival{Step: i / 8, Tmpl: int32(i * 7 % len(pt))})
	}
	fopts := netsim.FaultOpts{Faults: sched}
	oopts := netsim.OpenLoopOpts{Mode: netsim.CutThrough, Faults: sched}
	runs := []struct {
		name string
		run  func() error
	}{
		{"Simulate", func() error { _, err := netsim.Simulate(wm, netsim.CutThrough); return err }},
		{"SimulateSharded", func() error { _, err := netsim.SimulateSharded(wm, netsim.StoreAndForward, 3); return err }},
		{"SimulateFaults", func() error { _, err := netsim.SimulateFaults(wm, netsim.CutThrough, fopts); return err }},
		{"SimulateFaultsSharded", func() error {
			_, err := netsim.SimulateFaultsSharded(wm, netsim.StoreAndForward, fopts, 3)
			return err
		}},
		{"SimulateOpenLoop", func() error { _, err := netsim.SimulateOpenLoop(pt, tr.Source(), oopts); return err }},
		{"SimulateOpenLoopSharded", func() error {
			_, err := netsim.SimulateOpenLoopSharded(pt, tr.Source(), oopts, 3)
			return err
		}},
		{"PPacketCosts", func() error { _, err := e.PPacketCosts([]int{1, 3}); return err }},
	}
	for _, r := range runs {
		if err := r.run(); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("%s wrote into the route arena", r.name)
		}
	}
}

// A guest edge with no paths cannot carry its share of the transfer:
// WidthPathMessages names it instead of dividing by zero.
func TestWidthPathMessagesRejectsPathlessEdge(t *testing.T) {
	e, err := cycles.Theorem1(4)
	if err != nil {
		t.Fatal(err)
	}
	e.Paths[3] = nil
	_, err = WidthPathMessages(e, 16)
	if err == nil || !strings.Contains(err.Error(), "guest edge 3 has no paths") {
		t.Fatalf("pathless guest edge: err = %v", err)
	}
}

// MultiCopyCCCMessages rejects a permutation that leaves the host,
// naming the offending entry, instead of indexing past its inverse
// vertex maps.
func TestMultiCopyCCCMessagesRejectsBadPermutation(t *testing.T) {
	const n = 4
	mc, err := ccc.Theorem3(n)
	if err != nil {
		t.Fatal(err)
	}
	nodes := mc.Host.Nodes()
	identity := func(k int) []int {
		perm := make([]int, k)
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	for _, c := range []struct {
		perm []int
		want string
	}{
		{func() []int { p := identity(nodes); p[0] = 69; return p }(), "entry 0 is 69"},
		{func() []int { p := identity(nodes); p[7] = nodes; return p }(), fmt.Sprintf("entry 7 is %d", nodes)},
		{func() []int { p := identity(nodes); p[2] = -1; return p }(), "entry 2 is -1"},
		{identity(nodes + 1), fmt.Sprintf("%d entries for %d host nodes", nodes+1, nodes)},
	} {
		_, err := MultiCopyCCCMessages(mc, n, c.perm, 8)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("want error containing %q, got %v", c.want, err)
		}
	}
}
