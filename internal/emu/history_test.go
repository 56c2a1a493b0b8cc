package emu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dmp/internal/prog"
)

// historyProg runs a loop that mutates registers and memory every
// iteration, so any rewind error is visible in architectural state.
func historyProg() *prog.Program {
	return prog.MustAssemble(`
        li r1, 7
        li r2, 40
loop:   muli r1, r1, 13
        addi r1, r1, 5
        andi r3, r1, 255
        shli r4, r3, 3
        st r1, 0x4000(r4)
        ld r5, 0x4000(r4)
        add r6, r6, r5
        subi r2, r2, 1
        br.gt r2, zero, loop
        halt`)
}

// snapshotState captures the observable architectural state.
type archState struct {
	regs [32]uint64
	pc   uint64
	cnt  uint64
}

func capture(e *Emulator) archState {
	var s archState
	copy(s.regs[:], e.Regs[:])
	s.pc, s.cnt = e.PC, e.Count
	return s
}

func TestHistoryRewindExact(t *testing.T) {
	e := New(historyProg())
	e.EnableHistory()

	var states []archState
	var mems []uint64 // mem[0x4000] probe after each step
	states = append(states, capture(e))
	mems = append(mems, e.Mem.Read(0x4000))
	for i := 0; i < 150 && !e.Halted; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		states = append(states, capture(e))
		mems = append(mems, e.Mem.Read(0x4000))
	}

	// Rewind to several interior points and compare exactly.
	for _, target := range []uint64{120, 77, 30, 1, 0} {
		if err := e.RewindTo(target); err != nil {
			t.Fatalf("RewindTo(%d): %v", target, err)
		}
		got, want := capture(e), states[target]
		if got != want {
			t.Fatalf("rewind to %d: state %+v, want %+v", target, got, want)
		}
		if e.Mem.Read(0x4000) != mems[target] {
			t.Fatalf("rewind to %d: mem probe %d, want %d", target, e.Mem.Read(0x4000), mems[target])
		}
	}
}

func TestHistoryRewindThenReplayMatches(t *testing.T) {
	e := New(historyProg())
	e.EnableHistory()
	for i := 0; i < 100; i++ {
		e.Step() //nolint:errcheck
	}
	at100 := capture(e)
	if err := e.RewindTo(40); err != nil {
		t.Fatal(err)
	}
	// Replaying is deterministic: state at 100 must be identical.
	for i := 0; i < 60; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if capture(e) != at100 {
		t.Fatal("replay after rewind diverged")
	}
}

func TestHistoryTrim(t *testing.T) {
	e := New(historyProg())
	e.EnableHistory()
	for i := 0; i < 100; i++ {
		e.Step() //nolint:errcheck
	}
	e.TrimHistory(60)
	if e.HistoryLen() != 40 {
		t.Errorf("window = %d, want 40", e.HistoryLen())
	}
	// Rewinding inside the kept window still works...
	if err := e.RewindTo(80); err != nil {
		t.Fatal(err)
	}
	// ...but behind the trim point fails.
	if err := e.RewindTo(59); err == nil {
		t.Error("rewind behind trim succeeded")
	}
	// Rewind to exactly the trim frontier is allowed.
	if err := e.RewindTo(60); err != nil {
		t.Errorf("rewind to trim frontier: %v", err)
	}
}

func TestHistoryTrimThenContinue(t *testing.T) {
	e := New(historyProg())
	e.EnableHistory()
	ref := New(historyProg())
	for i := 0; i < 50; i++ {
		e.Step()   //nolint:errcheck
		ref.Step() //nolint:errcheck
	}
	e.TrimHistory(45)
	for !e.Halted {
		e.Step()   //nolint:errcheck
		ref.Step() //nolint:errcheck
	}
	if e.Regs != ref.Regs || e.Count != ref.Count {
		t.Error("history-enabled run diverged from plain run")
	}
}

func TestHistoryErrors(t *testing.T) {
	e := New(historyProg())
	if err := e.RewindTo(0); err == nil {
		t.Error("RewindTo without history succeeded")
	}
	e.EnableHistory()
	e.Step() //nolint:errcheck
	if err := e.RewindTo(5); err == nil {
		t.Error("RewindTo beyond Count succeeded")
	}
}

// Property: for random step counts and rewind targets, rewind+replay
// always reconverges with an untouched reference run.
func TestHistoryQuickRewindReplay(t *testing.T) {
	f := func(nRaw, backRaw uint8) bool {
		n := int(nRaw%100) + 10
		e := New(historyProg())
		e.EnableHistory()
		ref := New(historyProg())
		for i := 0; i < n && !e.Halted; i++ {
			e.Step()   //nolint:errcheck
			ref.Step() //nolint:errcheck
		}
		back := uint64(backRaw) % (e.Count + 1)
		if err := e.RewindTo(e.Count - back); err != nil {
			return false
		}
		for e.Count < ref.Count {
			if _, err := e.Step(); err != nil {
				return false
			}
		}
		return e.Regs == ref.Regs && e.PC == ref.PC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: any interleaving of Step, RewindTo and TrimHistory leaves the
// emulator exactly where a fresh emulator replayed to the same count
// would be — registers, PC, count, halt flag and every word the program
// stores to — with a window spanning exactly the steps since the last
// trim. Runs go to and past the halt (a step there must fail without
// effect), and rewinds cross back over it.
func TestHistoryQuickInterleaved(t *testing.T) {
	p := historyProg()
	// The loop stores to 0x4000 + 8*(r1 & 255).
	probe := func(e *Emulator) (m [256]uint64) {
		for i := range m {
			m[i] = e.Mem.Read(0x4000 + 8*uint64(i))
		}
		return m
	}
	crossings := 0 // rewinds from a halted emulator, over all runs
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(p)
		e.EnableHistory()
		base := uint64(0) // oldest rewindable count
		for op := 0; op < 80; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // step a burst, possibly into and past the halt
				for n := rng.Intn(120); n > 0; n-- {
					if e.Halted {
						before := e.Count
						if _, err := e.Step(); err == nil || e.Count != before {
							t.Logf("seed %d: step past halt succeeded", seed)
							return false
						}
						break
					}
					if _, err := e.Step(); err != nil {
						t.Logf("seed %d: step: %v", seed, err)
						return false
					}
				}
			case r < 8: // rewind somewhere inside the window
				target := base + uint64(rng.Int63n(int64(e.Count-base)+1))
				wasHalted := e.Halted
				if err := e.RewindTo(target); err != nil {
					t.Logf("seed %d: RewindTo(%d): %v", seed, target, err)
					return false
				}
				if wasHalted && !e.Halted {
					crossings++
				}
				ref := New(p)
				for ref.Count < target {
					if _, err := ref.Step(); err != nil {
						t.Logf("seed %d: replay: %v", seed, err)
						return false
					}
				}
				if e.Regs != ref.Regs || e.PC != ref.PC || e.Count != ref.Count || e.Halted != ref.Halted {
					t.Logf("seed %d: rewind to %d: pc=%d count=%d halted=%v, replay pc=%d count=%d halted=%v",
						seed, target, e.PC, e.Count, e.Halted, ref.PC, ref.Count, ref.Halted)
					return false
				}
				if probe(e) != probe(ref) {
					t.Logf("seed %d: rewind to %d: memory differs from replay", seed, target)
					return false
				}
				if got, want := e.HistoryLen(), int(e.Count-base); got != want {
					t.Logf("seed %d: window %d after rewind, want %d", seed, got, want)
					return false
				}
			default: // trim, sometimes past Count (clamped)
				to := base + uint64(rng.Int63n(int64(e.Count-base)+8))
				e.TrimHistory(to)
				if to > e.Count {
					to = e.Count
				}
				if to > base {
					base = to
				}
				if got, want := e.HistoryLen(), int(e.Count-base); got != want {
					t.Logf("seed %d: window %d after TrimHistory(%d), want %d", seed, got, to, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if crossings == 0 {
		t.Error("no run rewound across the halt; the property never exercised it")
	}
}
