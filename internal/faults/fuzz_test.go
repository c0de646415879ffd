package faults

import "testing"

// decodeSchedule builds a bounded schedule from raw fuzz bytes: up to 8
// events over 16 links with fail/recover steps in [1, 64]. The decode
// is total, so the fuzzer explores window overlap patterns rather than
// input validation.
func decodeSchedule(data []byte) *Schedule {
	s := NewSchedule()
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		b := int(data[at])
		at++
		return b
	}
	events := next() % 9
	for i := 0; i < events; i++ {
		link := next() % 16
		from := 1 + next()%64
		switch next() % 3 {
		case 0:
			s.FailLink(link, from)
		case 1:
			s.FailLinkTransient(link, from, from+1+next()%64)
		case 2:
			until := next() % 64 // may be ≤ from: an empty window
			s.FailLinkTransient(link, from, until)
		}
	}
	return s
}

// FuzzScheduleInvariants asserts, for arbitrary event lists:
//
//   - determinism: Status answers are stable across calls,
//   - permanence: once (down, permanent) holds at step t, it holds at
//     every later step,
//   - horizon: after Horizon() no link changes state,
//   - static view: EverDown(l) iff Status reports down at some step.
//   - fault set: AppendLinks lists exactly the EverDown links, each
//     once, after a non-empty dst prefix it leaves untouched.
func FuzzScheduleInvariants(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 3, 10, 0})
	f.Add([]byte{2, 3, 10, 1, 5, 3, 10, 2, 0})
	f.Add([]byte{3, 7, 1, 0, 7, 1, 1, 63, 7, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeSchedule(data)
		h := s.Horizon()
		if h < 0 {
			t.Fatalf("bounded schedule reports horizon %d", h)
		}
		for link := 0; link < 16; link++ {
			everDown := false
			permSince := -1
			for step := 1; step <= h+3; step++ {
				down, perm := s.Status(link, step)
				d2, p2 := s.Status(link, step)
				if down != d2 || perm != p2 {
					t.Fatal("Status not deterministic")
				}
				if perm && !down {
					t.Fatal("permanent but not down")
				}
				if down {
					everDown = true
				}
				if permSince >= 0 && (!down || !perm) {
					t.Fatalf("link %d: permanent at step %d but up/transient at %d",
						link, permSince, step)
				}
				if perm && permSince < 0 {
					permSince = step
				}
			}
			// After the horizon the state is frozen.
			dH, pH := s.Status(link, h+1)
			for _, step := range []int{h + 2, h + 10, h + 1000} {
				d, p := s.Status(link, step)
				if d != dH || p != pH {
					t.Fatalf("link %d changes state after horizon %d", link, h)
				}
			}
			if everDown != s.EverDown(link) {
				t.Fatalf("link %d: EverDown=%v but observed %v", link, s.EverDown(link), everDown)
			}
		}
		prefix := []int{-3, 99}
		got := s.AppendLinks(append([]int(nil), prefix...))
		if len(got) < len(prefix) || got[0] != prefix[0] || got[1] != prefix[1] {
			t.Fatalf("AppendLinks changed the dst prefix: %v", got)
		}
		listed := map[int]bool{}
		for _, l := range got[len(prefix):] {
			if listed[l] {
				t.Fatalf("AppendLinks listed link %d twice: %v", l, got)
			}
			listed[l] = true
			if !s.EverDown(l) {
				t.Fatalf("AppendLinks listed link %d, which is never down", l)
			}
		}
		for link := 0; link < 16; link++ {
			if s.EverDown(link) && !listed[link] {
				t.Fatalf("AppendLinks left out link %d, which goes down", link)
			}
		}
	})
}

// FuzzPerStepDeterminism asserts the stateless per-step model is
// replayable and never permanent, for arbitrary seeds and probes.
func FuzzPerStepDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(3), uint16(5))
	f.Add(int64(-99), uint8(200), uint16(0), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, pByte uint8, link, step uint16) {
		m := &PerStep{P: float64(pByte) / 255, Seed: seed}
		d1, p1 := m.Status(int(link), int(step))
		d2, p2 := m.Status(int(link), int(step))
		if d1 != d2 || p1 != p2 {
			t.Fatal("PerStep not deterministic")
		}
		if p1 {
			t.Fatal("PerStep outage reported permanent")
		}
		if pByte == 255 && !d1 {
			// hash01 < 1.0 always holds, so P=1 downs every pair.
			t.Fatal("P=1 left a link up")
		}
	})
}
