package netsim

import (
	"reflect"
	"testing"
)

// decodeFuzzMessages turns raw fuzz bytes into a bounded random route
// set: up to 8 messages, routes up to 6 hops over 12 links, up to 8
// flits. The decode is total — any byte string yields a valid set — so
// the fuzzer explores contention patterns instead of input validation.
func decodeFuzzMessages(data []byte) []*Message {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		b := int(data[at])
		at++
		return b
	}
	count := 1 + next()%8
	msgs := make([]*Message, count)
	for i := range msgs {
		hops := next() % 7 // 0 = empty route (self-delivery)
		route := make([]int32, hops)
		for h := range route {
			route[h] = int32(next() % 12)
		}
		msgs[i] = &Message{Route: route, Flits: 1 + next()%8}
	}
	return msgs
}

// FuzzSimulate asserts, for random route sets under all three
// switching modes:
//
//   - flit conservation: FlitsMoved == Σ flits × route length,
//   - delivery: every message (including empty routes) is delivered,
//   - determinism: two runs of the same input give identical Results,
//   - engine/reference equivalence for the two buffering modes.
//
// Wormhole switching may legitimately deadlock on cyclic route sets;
// then both runs must report the same deadlock instead.
func FuzzSimulate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 1, 4, 2, 1, 2, 5})
	f.Add([]byte{7, 6, 0, 1, 2, 3, 4, 5, 8, 6, 5, 4, 3, 2, 1, 0, 8})
	f.Add([]byte{5, 1, 3, 2, 1, 3, 2, 1, 3, 2})
	f.Add([]byte{2, 2, 9, 9, 4, 2, 9, 9, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := decodeFuzzMessages(data)
		wantFlits := 0
		for _, m := range msgs {
			wantFlits += m.Flits * len(m.Route)
		}
		for _, mode := range []Mode{StoreAndForward, CutThrough} {
			a, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			b, err := Simulate(msgs, mode)
			if err != nil {
				t.Fatalf("%v rerun: %v", mode, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%v: nondeterministic: %+v vs %+v", mode, a, b)
			}
			ref, err := SimulateReference(msgs, mode)
			if err != nil {
				t.Fatalf("%v reference: %v", mode, err)
			}
			if !reflect.DeepEqual(a, ref) {
				t.Fatalf("%v: engine %+v != reference %+v", mode, a, ref)
			}
			if a.FlitsMoved != wantFlits {
				t.Fatalf("%v: moved %d flits, want %d", mode, a.FlitsMoved, wantFlits)
			}
			if a.DeliveredMsgs != len(msgs) {
				t.Fatalf("%v: delivered %d of %d", mode, a.DeliveredMsgs, len(msgs))
			}
		}
		w1, err1 := SimulateWormhole(msgs)
		w2, err2 := SimulateWormhole(msgs)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("wormhole nondeterministic error: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("wormhole deadlock differs: %v vs %v", err1, err2)
			}
			return
		}
		if !reflect.DeepEqual(w1, w2) {
			t.Fatalf("wormhole nondeterministic: %+v vs %+v", w1, w2)
		}
		if w1.FlitsMoved != wantFlits {
			t.Fatalf("wormhole moved %d flits, want %d", w1.FlitsMoved, wantFlits)
		}
		if w1.DeliveredMsgs != len(msgs) {
			t.Fatalf("wormhole delivered %d of %d", w1.DeliveredMsgs, len(msgs))
		}
	})
}
