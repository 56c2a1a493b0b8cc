package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dmp/internal/core"
	"dmp/internal/prog"
	"dmp/internal/sample"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

const sampledScale = 10

// sampledConfigNames are the machines the sampled-long workload runs.
var sampledConfigNames = []string{"baseline", "enhanced"}

// exactRef is the exact run a sampled run is checked and scored against.
type exactRef struct {
	insts uint64
	ipc   float64
	wall  time.Duration
}

// runSampledLong runs sample.Run in SampleMode at the default operating
// point on every kernel under baseline and enhanced at scale 10, with
// reference data built from the seed and two worker slots. The exact
// reference runs happen after set-up and before timing, and are not part
// of setup_s: a sampling user never runs them. Each sampled run must
// cover the exact run's instruction count with at least one measured
// interval.
func runSampledLong(r *runner) error {
	kernels := workload.Names()
	var cfgs []core.Config
	for _, name := range sampledConfigNames {
		cfgs = append(cfgs, coreConfig(name))
	}
	var progs []*prog.Program
	var cost buildCost
	err := r.setup(5, func() error {
		progs = progs[:0]
		for _, k := range kernels {
			p, err := annotatedRef(k, sampledScale, dataSeed(r.seed), nil, &cost)
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

	refs, err := exactRefs(progs, cfgs)
	if err != nil {
		return err
	}

	slots := make(chan struct{}, runtime.NumCPU())
	var (
		insts, detailed, covered, errSum, runs float64
		wall, exactWall                        time.Duration
	)
	err = r.loop(func(root *telemetry.Span) (time.Duration, error) {
		results := make([]*sample.Result, len(refs))
		errs := make([]error, len(refs))
		t0 := time.Now()
		for i := range refs {
			p, cfg := progs[i/len(cfgs)], cfgs[i%len(cfgs)]
			cfg.SampleMode = true
			sp := root.Child(fmt.Sprintf("sample.Run %s/%s", kernels[i/len(cfgs)], sampledConfigNames[i%len(cfgs)]), catSample)
			// The calling goroutine holds one slot for the whole run, as
			// exp does; interval consumers try-acquire the other.
			slots <- struct{}{}
			results[i], errs[i] = sample.Run(p, cfg, sample.Options{Slots: slots})
			<-slots
			sp.End()
		}
		d := time.Since(t0)
		root.End()

		for i, res := range results {
			err := errs[i]
			if err == nil {
				err = checkSampled(res, refs[i])
			}
			if err != nil {
				r.op(fmt.Errorf("%s/%s: %w", kernels[i/len(cfgs)], sampledConfigNames[i%len(cfgs)], err))
				continue
			}
			r.op(nil)
			runs++
			insts += float64(res.TotalInsts)
			detailed += float64(res.DetailedRetired)
			wall += time.Duration(res.WallSeconds * float64(time.Second))
			exactWall += refs[i].wall
			if res.Covers(refs[i].ipc) {
				covered++
			}
			errSum += math.Abs(res.IPC/refs[i].ipc - 1)
			tm := res.Timing
			r.add("sample.runs", 1)
			r.add("sample.intervals", float64(res.K))
			r.add("sample.prefix_s", tm.PrefixSeconds)
			r.add("sample.warm_s", tm.WarmSeconds)
			r.add("sample.snapshot_s", tm.SnapshotSeconds)
			r.add("sample.detailed_s", tm.DetailedSeconds)
			r.add("sample.extrapolate_s", tm.ExtrapolateSeconds)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	if runs > 0 {
		r.set("sample.detailed_frac", detailed/insts)
		r.set("sample.ci_covered", covered/runs)
		r.set("sample.insts_per_s", insts/wall.Seconds())
		r.set("sample.speedup_vs_exact", exactWall.Seconds()/wall.Seconds())
		r.set("sample.ipc_err_pct", 100*errSum/runs)
	}
	fmt.Printf("# sample_ipc_err_pct=%.6f (deterministic for a seed)\n", r.layer["sample.ipc_err_pct"])
	return nil
}

// checkSampled checks a sampled run against its exact reference.
func checkSampled(res *sample.Result, ref exactRef) error {
	switch {
	case res.TotalInsts != ref.insts:
		return fmt.Errorf("sampled run covered %d instructions, exact run retired %d", res.TotalInsts, ref.insts)
	case res.K <= 0:
		return fmt.Errorf("sampled run measured no interval")
	}
	return nil
}

// exactRefs runs every (program, config) pair exactly, on as many
// goroutines as there are CPUs, in the order kernel-major.
func exactRefs(progs []*prog.Program, cfgs []core.Config) ([]exactRef, error) {
	// Two scale-10 machines at once hold several hundred MB; the limit
	// makes the collector keep their garbage from piling up on top.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(512 << 20))
	refs := make([]exactRef, len(progs)*len(cfgs))
	errs := make([]error, len(refs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				m, err := core.New(progs[i/len(cfgs)], cfgs[i%len(cfgs)])
				if err != nil {
					errs[i] = err
					continue
				}
				t0 := time.Now()
				st, err := m.Run()
				if err != nil {
					errs[i] = err
					continue
				}
				refs[i] = exactRef{insts: st.RetiredInsts, ipc: st.IPC(), wall: time.Since(t0)}
			}
		}()
	}
	for i := range refs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exact reference %d: %w", i, err)
		}
	}
	return refs, nil
}
