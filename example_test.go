package multipath_test

import (
	"fmt"

	"multipath"
)

// The headline result: Theorem 1 gives every cycle edge five disjoint
// paths on Q_8, cutting multi-packet transfer cost by Θ(n).
func Example_quickstart() {
	multi, err := multipath.CycleWidthEmbedding(8)
	if err != nil {
		panic(err)
	}
	w, _ := multi.Width()
	cost, _ := multi.SynchronizedCost()
	fmt.Printf("width %d, synchronized cost %d, load %d\n", w, cost, multi.Load())

	gray, _ := multipath.GrayCodeCycle(8)
	cg, _ := gray.PPacketCost(30)
	cm, _ := multi.PPacketCost(30)
	fmt.Printf("30 packets/edge: gray %d steps, multi-path %d steps\n", cg, cm)
	// Output:
	// width 5, synchronized cost 3, load 1
	// 30 packets/edge: gray 30 steps, multi-path 18 steps
}

// Lemma 1's substrate: the edges of Q_6 split into three Hamiltonian
// cycles, each machine-verified.
func ExampleHamiltonianDecomposition() {
	d, err := multipath.HamiltonianDecomposition(6)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Q_6: %d cycles of length %d, verification: %v\n",
		len(d.Cycles), len(d.Cycles[0]), d.Verify() == nil)
	// Output:
	// Q_6: 3 cycles of length 64, verification: true
}

// Theorem 3: eight copies of the 2048-node CCC share Q_11 with
// edge-congestion 2.
func ExampleCCCMultiCopy() {
	mc, err := multipath.CCCMultiCopy(8)
	if err != nil {
		panic(err)
	}
	cong, _ := mc.EdgeCongestion()
	fmt.Printf("%d copies, dilation %d, congestion %d\n",
		len(mc.Copies), mc.Dilation(), cong)
	// Output:
	// 8 copies, dilation 1, congestion 2
}

// IDA over disjoint paths: any 3 of the 5 pieces rebuild the payload.
func ExampleDisperse() {
	data := []byte("routing multiple paths")
	pieces, err := multipath.Disperse(data, 5, 3)
	if err != nil {
		panic(err)
	}
	out, err := multipath.Reconstruct(pieces[2:5], 3, len(data))
	if err != nil {
		panic(err)
	}
	fmt.Println(string(out))
	// Output:
	// routing multiple paths
}

// The simulator reproduces the paper's cost model: one flit per
// directed link per step.
func ExampleSimulate() {
	msgs := []*multipath.Message{{Route: []int32{1, 2, 3}, Flits: 5}}
	res, err := multipath.Simulate(msgs, multipath.CutThrough)
	if err != nil {
		panic(err)
	}
	fmt.Printf("3 hops, 5 flits: %d steps\n", res.Steps)
	// Output:
	// 3 hops, 5 flits: 7 steps
}
