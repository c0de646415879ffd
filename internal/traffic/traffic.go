// Package traffic builds netsim message sets from the embedding
// constructions — the glue between the structural layers (core, ccc)
// and the switching simulator. It exists as its own package so that
// netsim stays free of embedding types (core routes its packet-cost
// measurement through netsim, so netsim importing core would cycle).
package traffic

import (
	"fmt"

	"multipath/internal/ccc"
	"multipath/internal/core"
	"multipath/internal/netsim"
)

// CCCGreedyRoute returns the CCC vertex path from ⟨l1,c1⟩ to ⟨l2,c2⟩:
// ascend levels via straight edges, taking the cross edge at every
// level whose column bit differs, until the column matches and the
// level wraps around to the destination.
func CCCGreedyRoute(n int, from, to int32) []int32 {
	c := ccc.NewCCC(n)
	cur := from
	path := []int32{cur}
	guard := 0
	for cur != to {
		guard++
		if guard > 4*n+4 {
			panic("traffic: CCC route did not converge")
		}
		l, col := c.Level(cur), c.Col(cur)
		tcol := c.Col(to)
		if (col^tcol)&(1<<uint(l)) != 0 {
			cur = c.ID(l, col^1<<uint(l))
		} else {
			cur = c.ID((l+1)%n, col)
		}
		path = append(path, cur)
	}
	return path
}

// MultiCopyCCCMessages implements §7's speedup: each host node splits
// its M-flit message into one piece per CCC copy, routing piece k on
// copy k between the CCC vertices that copy k places at the source and
// destination host nodes. Routes are host link-id sequences, so all
// pieces share the physical hypercube under the embedding's congestion
// bound of 2. The routes share one id arena, and perm must map host
// nodes to host nodes.
func MultiCopyCCCMessages(mc *core.MultiCopy, n int, perm []int, flits int) ([]*netsim.Message, error) {
	if flits < 1 {
		return nil, fmt.Errorf("traffic: multi-copy messages need at least 1 flit, got %d", flits)
	}
	q := mc.Host
	if len(perm) > q.Nodes() {
		return nil, fmt.Errorf("traffic: permutation has %d entries for %d host nodes", len(perm), q.Nodes())
	}
	moving := 0
	for src, dst := range perm {
		if dst < 0 || dst >= q.Nodes() {
			return nil, fmt.Errorf("traffic: permutation entry %d is %d, outside [0,%d)", src, dst, q.Nodes())
		}
		if dst != src {
			moving++
		}
	}
	copies := len(mc.Copies)
	piece := (flits + copies - 1) / copies
	// Invert each copy's vertex map: host node → CCC vertex.
	inv := make([][]int32, copies)
	for k, cp := range mc.Copies {
		iv := make([]int32, q.Nodes())
		for v, h := range cp.VertexMap {
			iv[h] = int32(v)
		}
		inv[k] = iv
	}
	hdrs := make([]netsim.Message, 0, moving*copies)
	var ids []int32
	for src, dst := range perm {
		if src == dst {
			continue
		}
		for k := 0; k < copies; k++ {
			vp := CCCGreedyRoute(n, inv[k][src], inv[k][dst])
			at := len(ids)
			for i := 0; i+1 < len(vp); i++ {
				hu := mc.Copies[k].VertexMap[vp[i]]
				hv := mc.Copies[k].VertexMap[vp[i+1]]
				id, err := q.EdgeBetween(hu, hv)
				if err != nil {
					return nil, fmt.Errorf("traffic: copy %d route leaves dilation 1: %w", k, err)
				}
				ids = append(ids, int32(id))
			}
			hdrs = append(hdrs, netsim.Message{Route: ids[at:], Flits: piece})
		}
	}
	netsim.SliceRoutes(hdrs, ids)
	return pointers(hdrs), nil
}

// pointers returns a pointer to each of hdrs, the []*netsim.Message
// form the engine takes; the headers stay in their one backing array.
func pointers(hdrs []netsim.Message) []*netsim.Message {
	msgs := make([]*netsim.Message, len(hdrs))
	for i := range hdrs {
		msgs[i] = &hdrs[i]
	}
	return msgs
}

// PathTemplates builds one open-loop route template per disjoint path
// of each listed guest edge of a multiple-path embedding (edges nil
// selects every guest edge), each template carrying flits flits, and
// returns the per-edge index groups: groups[b] lists the template
// indices of bundle b's paths in path order, so groups[b][j] is path j
// of edges[b]. Zero-hop paths (both guest endpoints mapped to the same
// host node) keep an empty-route template so a bundle's path indexing
// stays aligned with e.Paths; the open-loop engine delivers arrivals
// on them instantly. This is the template layout the self-healing
// session (internal/selfheal) keys its reroute path cycling on.
//
// Routes alias the embedding's route cache (core.Embedding.RouteArena)
// and the groups are views of one index slice, so a call allocates a
// fixed handful of slices whatever the embedding's size. Every edge
// index is range-checked before any path is, so an out-of-range index
// is reported ahead of a bad path.
func PathTemplates(e *core.Embedding, edges []int, flits int) ([]*netsim.Message, [][]int32, error) {
	if flits < 1 {
		return nil, nil, fmt.Errorf("traffic: path templates need at least 1 flit, got %d", flits)
	}
	if edges == nil {
		edges = make([]int, len(e.Paths))
		for i := range edges {
			edges[i] = i
		}
	}
	count := 0
	for _, ge := range edges {
		if ge < 0 || ge >= len(e.Paths) {
			return nil, nil, fmt.Errorf("traffic: guest edge %d out of range [0,%d)", ge, len(e.Paths))
		}
		count += len(e.Paths[ge])
	}
	ids, pathOff, edgeOff, err := e.RouteArena()
	if err != nil {
		return nil, nil, err
	}
	hdrs := make([]netsim.Message, count)
	index := make([]int32, count)
	groups := make([][]int32, len(edges))
	t := 0
	for b, ge := range edges {
		first := t
		for p := edgeOff[ge]; p < edgeOff[ge+1]; p++ {
			a, z := pathOff[p], pathOff[p+1]
			hdrs[t] = netsim.Message{Route: ids[a:z:z], Flits: flits}
			index[t] = int32(t)
			t++
		}
		groups[b] = index[first:t:t]
	}
	return pointers(hdrs), groups, nil
}

// WidthPathMessages spreads an M-flit transfer per guest edge of a
// multiple-path embedding across its disjoint paths — the paper's §2
// use of width for throughput. Routes alias the embedding's route
// cache (core.Embedding.RouteArena), so a call allocates only the
// message headers and the pointers to them. A guest edge with no paths
// is an error: it cannot carry its transfer.
func WidthPathMessages(e *core.Embedding, flits int) ([]*netsim.Message, error) {
	if flits < 1 {
		return nil, fmt.Errorf("traffic: width-path messages need at least 1 flit, got %d", flits)
	}
	ids, pathOff, edgeOff, err := e.RouteArena()
	if err != nil {
		return nil, err
	}
	// Each path carries at most one message. Path j of a width-w edge
	// carries flits/w flits, plus one of the flits%w remainder when j is
	// below it, so none at all once j reaches flits.
	hdrs := make([]netsim.Message, 0, len(pathOff)-1)
	for i := range e.Paths {
		first, past := edgeOff[i], edgeOff[i+1]
		w := int(past - first)
		if w == 0 {
			return nil, fmt.Errorf("traffic: guest edge %d has no paths", i)
		}
		base, extra := flits/w, flits%w
		for j := 0; j < w && j < flits; j++ {
			a, z := pathOff[first+int32(j)], pathOff[first+int32(j)+1]
			if a == z {
				continue
			}
			f := base
			if j < extra {
				f++
			}
			hdrs = append(hdrs, netsim.Message{Route: ids[a:z:z], Flits: f})
		}
	}
	return pointers(hdrs), nil
}
