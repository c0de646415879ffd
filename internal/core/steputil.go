package core

// StepUtilization returns, for each step t of the synchronized
// schedule (all paths launched together, one hop per step), the
// fraction of directed host edges that carry a packet at step t+1.
// Theorem 1 keeps roughly half the links busy at each of its three
// steps; Theorem 2 with n ≡ 0 (mod 4) keeps all of them busy.
//
// Distinct edges per step are counted in a pooled flat bitset keyed by
// dense host-edge id; after each step the pass clears exactly the bits
// it set, so one bitset serves every step with no per-step allocation.
func (e *Embedding) StepUtilization() ([]float64, error) {
	rc, err := e.routes()
	if err != nil {
		return nil, err
	}
	steps := rc.maxLen
	bp := edgeBitsets.get(e.Host.DirectedEdges())
	defer edgeBitsets.put(bp)
	bits := *bp
	totalPaths := len(rc.pathOff) - 1
	total := float64(e.Host.DirectedEdges())
	out := make([]float64, steps)
	for t := 0; t < steps; t++ {
		used := 0
		for p := 0; p < totalPaths; p++ {
			at := rc.pathOff[p] + int32(t)
			if at >= rc.pathOff[p+1] {
				continue
			}
			id := rc.ids[at]
			if bits[id>>6]&(1<<(uint(id)&63)) == 0 {
				bits[id>>6] |= 1 << (uint(id) & 63)
				used++
			}
		}
		out[t] = float64(used) / total
		for p := 0; p < totalPaths; p++ {
			at := rc.pathOff[p] + int32(t)
			if at < rc.pathOff[p+1] {
				id := rc.ids[at]
				bits[id>>6] &^= 1 << (uint(id) & 63)
			}
		}
	}
	return out, nil
}
