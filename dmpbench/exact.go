package main

import (
	"fmt"
	"time"

	"dmp/internal/core"
	"dmp/internal/emu"
	"dmp/internal/isa"
	"dmp/internal/prog"
	"dmp/internal/telemetry"
)

// coreKernels cover mispredict-heavy (twolf, parser, vpr), hammock and
// memory-bound (mcf), spaghetti (gcc) and predictable (perlbmk, eon)
// control flow, so a change to dynamic-predication episodes moves some
// configurations and leaves baseline and perlbmk alone.
var coreKernels = []string{"twolf", "parser", "vpr", "mcf", "gcc", "perlbmk", "eon"}

const coreScale = 3

// coreConfig returns the machine of one coreConfigNames entry, with the
// checker off.
func coreConfig(name string) core.Config {
	cfg := core.DefaultConfig()
	switch name {
	case "baseline":
	case "dhp":
		cfg = core.DHPConfig()
	case "dualpath":
		cfg.Mode = core.ModeDualPath
	case "dmp":
		cfg = core.DMPConfig()
	case "enhanced":
		cfg = core.EnhancedDMPConfig()
	case "enhanced-dynamic":
		cfg = core.EnhancedDMPConfig()
		cfg.CFMSource = "dynamic"
	default:
		panic("unknown core config " + name)
	}
	cfg.CheckRetirement = false
	return cfg
}

// archState is the architectural outcome of one run: what the check
// compares between the core and the functional emulator.
type archState struct {
	halted bool
	insts  uint64
	regs   [isa.NumRegs]uint64
}

// emulate runs p on the functional emulator to completion.
func emulate(p *prog.Program) (archState, error) {
	e := emu.New(p)
	if _, err := e.Run(0); err != nil {
		return archState{}, err
	}
	return archState{halted: e.Halted, insts: e.Count, regs: e.Regs}, nil
}

// machineState is a finished machine's architectural outcome.
func machineState(m *core.Machine, st *core.Stats) archState {
	a := archState{halted: st.HaltRetired, insts: st.RetiredInsts}
	for i := range a.regs {
		a.regs[i] = m.CommittedReg(isa.Reg(i))
	}
	return a
}

// checkArch compares a core run's outcome with the emulator's.
func checkArch(got, want archState) error {
	switch {
	case !got.halted:
		return fmt.Errorf("did not halt")
	case got.insts != want.insts:
		return fmt.Errorf("retired %d instructions, emulator %d", got.insts, want.insts)
	}
	for i := range want.regs {
		if got.regs[i] != want.regs[i] {
			return fmt.Errorf("r%d = %#x, emulator %#x", i, got.regs[i], want.regs[i])
		}
	}
	return nil
}

// runCoreExact runs each kernel under each machine exactly (core.New and
// Machine.Run, checker off) on one goroutine, with reference data built
// from the seed. After the timed part every run is checked against the
// functional emulator: it halts, retires the emulator's instruction
// count and ends with the emulator's registers.
func runCoreExact(r *runner) error {
	var cfgs []core.Config
	for _, name := range coreConfigNames {
		cfgs = append(cfgs, coreConfig(name))
	}
	var progs []*prog.Program
	var cost buildCost
	err := r.setup(5, func() error {
		progs = progs[:0]
		for _, k := range coreKernels {
			p, err := annotatedRef(k, coreScale, dataSeed(r.seed), nil, &cost)
			if err != nil {
				return err
			}
			progs = append(progs, p)
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("workload.build_s", cost.build.Seconds()/float64(len(r.setupS)))
	r.set("profile.run_s", cost.profile.Seconds()/float64(len(r.setupS)))

	type cfgTotals struct {
		insts, uops, fetched, wrong float64
		run, new                    time.Duration
	}
	totals := make([]cfgTotals, len(cfgs))
	var emuInsts float64
	var emuTime time.Duration
	got := make([]archState, len(progs)*len(cfgs))
	ran := make([]bool, len(got)) // false: the run errored and was counted as failed
	err = r.loop(func(root *telemetry.Span) (time.Duration, error) {
		t0 := time.Now()
		for ki, p := range progs {
			for ci, cfg := range cfgs {
				label := coreKernels[ki] + "/" + coreConfigNames[ci]
				sp := root.Child("core.New "+label, catCore)
				t := time.Now()
				m, err := core.New(p, cfg)
				totals[ci].new += time.Since(t)
				sp.End()
				run := ki*len(cfgs) + ci
				ran[run] = false
				if err != nil {
					r.op(fmt.Errorf("%s: %w", label, err))
					continue
				}
				sp = root.Child("Machine.Run "+label, catCore)
				t = time.Now()
				st, err := m.Run()
				totals[ci].run += time.Since(t)
				sp.End()
				r.op(err)
				if err != nil {
					continue
				}
				ran[run] = true
				got[run] = machineState(m, st)
				tc := &totals[ci]
				tc.insts += float64(st.RetiredInsts)
				tc.uops += float64(st.FetchedUops)
				tc.fetched += float64(st.FetchedInsts)
				tc.wrong += float64(st.FetchedWrongCD + st.FetchedWrongCI)
			}
		}
		d := time.Since(t0)

		for ki, p := range progs {
			sp := root.Child("emu "+coreKernels[ki], catEmu)
			t := time.Now()
			want, err := emulate(p)
			emuTime += time.Since(t)
			sp.End()
			if err != nil {
				r.fail(fmt.Errorf("%s: emulator: %w", coreKernels[ki], err))
				continue
			}
			emuInsts += float64(want.insts)
			for ci := range cfgs {
				run := ki*len(cfgs) + ci
				if !ran[run] {
					continue
				}
				if err := checkArch(got[run], want); err != nil {
					r.fail(fmt.Errorf("%s/%s: %w", coreKernels[ki], coreConfigNames[ci], err))
				}
			}
		}
		root.End()
		return d, nil
	})
	if err != nil {
		return err
	}

	var all cfgTotals
	for ci, tc := range totals {
		r.set("core.insts_per_s."+coreConfigNames[ci], tc.insts/tc.run.Seconds())
		all.insts += tc.insts
		all.uops += tc.uops
		all.fetched += tc.fetched
		all.wrong += tc.wrong
		all.run += tc.run
		all.new += tc.new
	}
	reps := float64(r.reps())
	r.set("core.run_s", all.run.Seconds()/reps)
	r.set("core.new_ms", 1e3*all.new.Seconds()/(reps*float64(len(progs)*len(cfgs))))
	coreRate := all.insts / all.run.Seconds()
	r.set("core.insts_per_s", coreRate)
	r.set("core.uops_per_s", all.uops/all.run.Seconds())
	r.set("core.uops_per_inst", all.uops/all.insts)
	r.set("core.wrong_path_frac", all.wrong/all.fetched)
	emuRate := emuInsts / emuTime.Seconds()
	r.set("emu.insts_per_s", emuRate)
	r.set("core.slowdown_vs_emu", emuRate/coreRate)
	return nil
}
