package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dmp/internal/exp"
	"dmp/internal/sched"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

// paperScale is the scale of the committed golden tables.
const paperScale = 1

// runPaperSuite launches every experiment concurrently through exp.All
// at scale 1 with the checker on, as `dmpexp -scale 1 all` does, and
// compares the tables with the committed golden output. exp.Reset runs
// before each repetition because a CLI user pays the annotation builds on
// every run. The seed permutes the launch order of each repetition.
func runPaperSuite(r *runner) error {
	golden, err := goldenTables(r.golden)
	if err != nil {
		return err
	}
	ids := exp.IDs()
	opts := exp.DefaultOptions()
	opts.Scale = paperScale
	opts.Check = true
	opts.Parallel = runtime.NumCPU()

	// Set-up builds the suite's annotated inputs from a cold program
	// cache. The repetitions pay for the same builds again after
	// exp.Reset.
	err = r.setup(5, func() error {
		_, err := annotateAll()
		return err
	})
	if err != nil {
		return err
	}
	r.set("exp.annotate_s", median(r.setupS))

	var tally schedTally
	err = r.loop(func(root *telemetry.Span) (time.Duration, error) {
		exp.Reset()
		before := telemetry.DefaultRegistry().Snapshot()
		tables := make([]*exp.Table, len(ids))
		errs := make([]error, len(ids))
		took := make([]time.Duration, len(ids))
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, i := range r.order(len(ids)) {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sp := root.ChildAsync(ids[i], catExp)
				t := time.Now()
				tables[i], errs[i] = exp.All[ids[i]](opts)
				took[i] = time.Since(t)
				sp.End()
			}(i)
		}
		wg.Wait()
		got := map[string]string{}
		for i, id := range ids {
			if errs[i] == nil {
				got[id] = tables[i].String() + "\n"
			}
		}
		d := time.Since(t0)
		root.End()

		counts := exp.ResultCache().Counts()
		delta := telemetry.DefaultRegistry().Snapshot().Delta(before)
		runs, _ := histVal(delta, "dmp_sample_prefix_seconds")
		r.ops(int(counts.Computed) + int(runs))
		for i, id := range ids {
			r.add("exp."+id+"_s", took[i].Seconds())
			if errs[i] != nil {
				r.fail(fmt.Errorf("%s: %w", id, errs[i]))
			}
		}
		for _, err := range checkTables(golden, got) {
			r.fail(err)
		}
		r.addSched(&tally, counts, delta)
		return d, nil
	})
	if err != nil {
		return err
	}
	r.setReuse(tally)
	return nil
}

// annotateAll builds every kernel's annotated program, both plain and
// loop-marked, at the paper scale from a cold program cache, and drops
// them again. It is the input build every dmpexp run pays.
func annotateAll() (time.Duration, error) {
	exp.Reset()
	defer exp.Reset()
	t0 := time.Now()
	for _, b := range workload.Names() {
		if _, err := exp.Annotated(b, paperScale); err != nil {
			return 0, err
		}
		if _, err := exp.AnnotatedLoops(b, paperScale); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// schedTally carries the scheduler request totals behind
// sched.reuse_ratio across repetitions.
type schedTally struct{ requests, reused float64 }

// addSched records one repetition's result-cache counts and the
// registry's scheduler and sampling counters (a delta over the
// repetition).
func (r *runner) addSched(t *schedTally, c sched.Counts, d telemetry.Snapshot) {
	r.add("sched.computed", float64(c.Computed))
	r.add("sched.hits", float64(c.Hits))
	r.add("sched.store_hits", float64(c.StoreHits))
	t.requests += float64(c.Hits + c.Misses)
	t.reused += float64(c.Hits + c.StoreHits)
	// The simulation histogram includes each simulation's wait for a
	// worker slot; busy time is what the slots were held for.
	_, sims := histVal(d, "dmp_sched_simulation_seconds")
	_, slot := histVal(d, "dmp_sched_slot_wait_seconds")
	_, flight := histVal(d, "dmp_sched_singleflight_wait_seconds")
	r.add("sched.sim_busy_s", sims-slot)
	r.add("sched.slot_wait_s", slot)
	r.add("sched.singleflight_wait_s", flight)
	r.add("sched.shed", counterVal(d, "dmp_sched_shed_total"))

	runs, prefix := histVal(d, "dmp_sample_prefix_seconds")
	r.add("sample.runs", runs)
	r.add("sample.prefix_s", prefix)
	for _, stage := range []string{"warm", "snapshot", "detailed", "extrapolate"} {
		_, s := histVal(d, "dmp_sample_"+stage+"_seconds")
		r.add("sample."+stage+"_s", s)
	}
	r.add("sample.intervals", counterVal(d, "dmp_sample_intervals_total"))
}

func (r *runner) setReuse(t schedTally) {
	if t.requests > 0 {
		r.set("sched.reuse_ratio", t.reused/t.requests)
	}
}
