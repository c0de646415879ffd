package main

import (
	"fmt"
	"slices"

	"multipath/internal/core"
	"multipath/internal/netsim"
	"multipath/internal/traffic"
)

// drainFlits is the payload each guest edge spreads over its paths.
const drainFlits = 16

// emptyTrace makes an open-loop run do nothing but number its routes.
var emptyTrace = &netsim.Trace{}

// setupDrain builds Theorems 1, 2 and 4 at Q_16 once. Each round then
// measures PPacketCosts on all three, and on Theorems 1 and 2 builds
// the width-path messages and drains them closed-loop: cut-through,
// store-and-forward, and cut-through on two shards, which must equal
// the one-shard run. The workload is deterministic; the seed changes
// nothing here.
func setupDrain(int64) ([]op, error) {
	var ops []op
	built := map[string]*core.Embedding{}
	for _, c := range constructions {
		e, err := c.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		built[c.name] = e
		hops := ppacketHops(e, ppacketSweep)
		ops = append(ops, op{"ppacket/" + c.name, func(b *bench) error {
			costs, err := call(b, "ppacket", "PPacketCosts", func() ([]int, error) { return e.PPacketCosts(ppacketSweep) })
			if err != nil {
				return err
			}
			b.sum("%s ppacket=%v", c.name, costs)
			if !slices.Equal(costs, c.ppacket) {
				return fmt.Errorf("%s PPacketCosts(%v) = %v, want %v", c.name, ppacketSweep, costs, c.ppacket)
			}
			b.hops += hops
			return nil
		}})
	}
	for _, c := range []construction{theorem1, theorem2} {
		e := built[c.name]
		var msgs []*netsim.Message
		var hops int64
		var ct *netsim.Result
		ops = append(ops,
			op{"templates/" + c.name, func(b *bench) error {
				var err error
				msgs, err = call(b, "templates", "WidthPathMessages", func() ([]*netsim.Message, error) {
					return traffic.WidthPathMessages(e, drainFlits)
				})
				if err != nil {
					return err
				}
				hops = injected(msgs)
				b.count("templates.messages", float64(len(msgs)))
				b.sum("%s messages=%d flit_hops=%d", c.name, len(msgs), hops)
				return nil
			}},
			op{"closed-ct/" + c.name, func(b *bench) error {
				var err error
				ct, err = closedRun(b, "Simulate/ct", msgs, hops, func() (*netsim.Result, error) {
					return netsim.Simulate(msgs, netsim.CutThrough)
				})
				return err
			}},
			op{"closed-sf/" + c.name, func(b *bench) error {
				_, err := closedRun(b, "Simulate/sf", msgs, hops, func() (*netsim.Result, error) {
					return netsim.Simulate(msgs, netsim.StoreAndForward)
				})
				return err
			}},
			op{"closed-ct2/" + c.name, func(b *bench) error {
				r, err := closedRun(b, "SimulateSharded/ct", msgs, hops, func() (*netsim.Result, error) {
					return netsim.SimulateSharded(msgs, netsim.CutThrough, 2)
				})
				if err != nil {
					return err
				}
				if ct == nil || *r != *ct {
					return fmt.Errorf("%s: 2-shard result %+v differs from 1-shard %+v", c.name, *r, ct)
				}
				return nil
			}},
		)
	}
	return ops, nil
}

// closedRun runs one closed-loop simulation of msgs and checks it.
func closedRun(b *bench, name string, msgs []*netsim.Message, hops int64, sim func() (*netsim.Result, error)) (*netsim.Result, error) {
	r, err := call(b, "closed", name, sim)
	if err != nil {
		return nil, err
	}
	if err := numbering(b, msgs); err != nil {
		return nil, err
	}
	if err := checkClosed(r, len(msgs), hops); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	b.hops += int64(r.FlitsMoved)
	b.count("closed.flit_hops", float64(r.FlitsMoved))
	b.count("closed.steps", float64(r.Steps))
	b.sum("%s %+v", name, *r)
	return r, nil
}

// numbering times, in traced rounds, the engine's numbering pass over
// msgs from outside: an open-loop run with no arrivals does nothing
// else. Callers run it after the call it splits, so that the call does
// not find the templates already in cache.
func numbering(b *bench, msgs []*netsim.Message) error {
	if b.tr == nil {
		return nil
	}
	b.count("numbering.positions", float64(positions(msgs)))
	return b.split("numbering", "SimulateOpenLoop", func() error {
		_, err := netsim.SimulateOpenLoop(msgs, emptyTrace.Source(), netsim.OpenLoopOpts{})
		return err
	})
}

// ppacketHops is the flit-hops PPacketCosts(ps) moves on e: each guest
// edge sends p one-flit packets round-robin over its paths, and a
// fault-free run moves every packet over every edge of its path.
func ppacketHops(e *core.Embedding, ps []int) int64 {
	var n int64
	for _, paths := range e.Paths {
		for _, p := range ps {
			for k := 0; k < p && len(paths) > 0; k++ {
				if l := len(paths[k%len(paths)]) - 1; l > 0 {
					n += int64(l)
				}
			}
		}
	}
	return n
}
