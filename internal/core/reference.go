package core

import "fmt"

// Reference implementations of the metric verifiers, preserved
// verbatim from the original map-based code. They are the golden
// models for the dense engine's equivalence tests and — because they
// scan paths in the original (guest edge, path, step) order — the
// source of exact error messages when a dense pass detects a
// violation: the fast paths below delegate to them whenever something
// is wrong, so error text and ordering are bit-identical to the
// pre-dense behaviour.

// validateReference is the original serial Validate.
func (e *Embedding) validateReference() error {
	if len(e.VertexMap) != e.Guest.N() {
		return fmt.Errorf("embedding: vertex map covers %d of %d guest vertices", len(e.VertexMap), e.Guest.N())
	}
	for v, h := range e.VertexMap {
		if !e.Host.Contains(h) {
			return fmt.Errorf("embedding: vertex %d mapped outside host: %d", v, h)
		}
	}
	if len(e.Paths) != e.Guest.M() {
		return fmt.Errorf("embedding: %d path sets for %d guest edges", len(e.Paths), e.Guest.M())
	}
	for i, ps := range e.Paths {
		ge := e.Guest.Edge(i)
		from, to := e.VertexMap[ge.U], e.VertexMap[ge.V]
		if len(ps) == 0 {
			return fmt.Errorf("embedding: guest edge %d has no paths", i)
		}
		for j, p := range ps {
			if len(p) == 0 {
				return fmt.Errorf("embedding: guest edge %d path %d empty", i, j)
			}
			if _, err := e.Host.CheckPath(p); err != nil {
				return fmt.Errorf("embedding: guest edge %d path %d: %w", i, j, err)
			}
			if p[0] != from || p[len(p)-1] != to {
				return fmt.Errorf("embedding: guest edge %d path %d connects %d→%d, want %d→%d",
					i, j, p[0], p[len(p)-1], from, to)
			}
		}
	}
	return nil
}

// WidthReference is the original map-based Width: it verifies per-edge
// path disjointness with a hash set and returns the minimum path count.
func (e *Embedding) WidthReference() (int, error) {
	width := -1
	for i, ps := range e.Paths {
		seen := make(map[int]int)
		for j, p := range ps {
			ids, err := e.Host.PathEdgeIDs(p)
			if err != nil {
				return 0, fmt.Errorf("embedding: guest edge %d path %d: %w", i, j, err)
			}
			for _, id := range ids {
				if prev, dup := seen[id]; dup {
					ed := e.Host.EdgeOf(id)
					return 0, fmt.Errorf("embedding: guest edge %d: paths %d and %d share host edge (%d,dim %d)",
						i, prev, j, ed.From, ed.Dim)
				}
				seen[id] = j
			}
		}
		if width < 0 || len(ps) < width {
			width = len(ps)
		}
	}
	if width < 0 {
		width = 0
	}
	return width, nil
}

// SynchronizedCostReference is the original map-based SynchronizedCost:
// a (edge, step) hash map scanned in (guest edge, path, step) order.
func (e *Embedding) SynchronizedCostReference() (int, error) {
	type slot struct {
		edge, step int
	}
	seen := make(map[slot][2]int) // -> (guest edge, path index)
	cost := 0
	for i, ps := range e.Paths {
		for j, p := range ps {
			ids, err := e.Host.PathEdgeIDs(p)
			if err != nil {
				return 0, err
			}
			if len(ids) > cost {
				cost = len(ids)
			}
			for t, id := range ids {
				s := slot{id, t}
				if prev, dup := seen[s]; dup {
					ed := e.Host.EdgeOf(id)
					return 0, fmt.Errorf("core: step %d: host edge (%d,dim %d) claimed by guest edge %d path %d and guest edge %d path %d",
						t+1, ed.From, ed.Dim, prev[0], prev[1], i, j)
				}
				seen[s] = [2]int{i, j}
			}
		}
	}
	return cost, nil
}
