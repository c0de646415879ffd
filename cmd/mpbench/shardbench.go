package main

import (
	"fmt"
	"sync"

	"multipath/internal/cycles"
	"multipath/internal/netsim"
	"multipath/internal/traffic"
)

// E25: the partitioned netsim engine (netsim.SimulateSharded) against
// the single-shard engine on Theorem 1 width-path traffic at large n.
// Every sharded run must be bit-identical to the single-shard result;
// a divergence aborts the experiment.

// Sweep parameters. The test package shrinks them so the full-suite
// regression gate stays fast.
var (
	shardMax   = 8             // sweep shard counts 1, 2, 4, ..., shardMax
	shardDims  = []int{16, 20} // host dimensions; Q_20 is the million-node target
	shardFlits = 4
)

// shardCountSweep returns the verified shard counts: powers of two
// from 1 through shardMax (shardMax itself included even when not a
// power of two).
func shardCountSweep() []int {
	counts := []int{1}
	for s := 2; s < shardMax; s *= 2 {
		counts = append(counts, s)
	}
	if shardMax > 1 {
		counts = append(counts, shardMax)
	}
	return counts
}

type shardCase struct {
	Dims       int
	Links      int
	Messages   int
	Steps      int
	FlitsMoved int
	// Shards lists the shard counts whose result matched the
	// single-shard engine's.
	Shards []int
}

// measureShardSweep runs the sweep once per process and caches it.
var measureShardSweep = sync.OnceValues(func() ([]shardCase, error) {
	var cases []shardCase
	for _, n := range shardDims {
		e, err := cycles.Theorem1(n)
		if err != nil {
			return nil, fmt.Errorf("theorem1 n=%d: %w", n, err)
		}
		msgs, err := traffic.WidthPathMessages(e, shardFlits)
		if err != nil {
			return nil, fmt.Errorf("traffic n=%d: %w", n, err)
		}
		base, err := netsim.Simulate(msgs, netsim.CutThrough)
		if err != nil {
			return nil, fmt.Errorf("baseline n=%d: %w", n, err)
		}
		c := shardCase{
			Dims:       n,
			Links:      e.Host.DirectedEdges(),
			Messages:   len(msgs),
			Steps:      base.Steps,
			FlitsMoved: base.FlitsMoved,
		}
		for _, shards := range shardCountSweep() {
			got, err := netsim.SimulateSharded(msgs, netsim.CutThrough, shards)
			if err != nil {
				return nil, fmt.Errorf("n=%d shards=%d: %w", n, shards, err)
			}
			if *got != *base {
				return nil, fmt.Errorf("n=%d shards=%d: result diverged from baseline: %+v vs %+v",
					n, shards, got, base)
			}
			c.Shards = append(c.Shards, shards)
		}
		cases = append(cases, c)
	}
	return cases, nil
})

// runE25 renders the shard sweep: the partitioned engine against the
// single-shard engine on the paper's own Theorem 1 traffic, at host
// sizes where the dense link space reaches the millions.
func runE25() (*table, error) {
	cases, err := measureShardSweep()
	if err != nil {
		return nil, err
	}
	tab := &table{headers: []string{
		"host", "links", "messages", "steps", "shards", "identical",
	}}
	for _, c := range cases {
		for _, shards := range c.Shards {
			tab.addRow(
				fmt.Sprintf("Q_%d", c.Dims),
				fmt.Sprintf("%d", c.Links),
				fmt.Sprintf("%d", c.Messages),
				fmt.Sprintf("%d", c.Steps),
				fmt.Sprintf("%d", shards),
				"yes", // measureShardSweep errors out on any divergence
			)
		}
	}
	tab.note("Theorem 1 width-path traffic, %d flits per guest edge, cut-through; every sharded "+
		"result was verified bit-identical to the single-shard engine's.", shardFlits)
	return tab, nil
}
