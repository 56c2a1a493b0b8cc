package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dmp/internal/exp"
	"dmp/internal/profile"
	"dmp/internal/prog"
	"dmp/internal/telemetry"
	"dmp/internal/workload"
)

// A benchWorkload is one set of inputs the benchmark runs. why is the reason
// BENCHMARK.json records for it.
type benchWorkload struct {
	name, why string
	run       func(r *runner) error
}

var workloads = []*benchWorkload{
	{"paper-suite", "every paper table at scale 1 as dmpexp runs it: all simulator layers in real proportion, with sched deduplication", runPaperSuite},
	{"core-exact", "exact cycle-level runs of seven kernels under six machines: the core, predictors, caches and merge predictor alone", runCoreExact},
	{"sampled-long", "sampled runs of all kernels at scale 10: functional warming and snapshots, with sampled-vs-exact IPC error", runSampledLong},
	{"serve-restart", "a restarted dmpserve answering the whole suite from a warm store: store reads, serve and sched backing, no exact core", runServeRestart},
}

func workloadByName(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// orderStream returns the seed's stream of request orders: each call
// gives the next permutation of 0..n-1. math/rand's seeded source is
// stable across Go releases. Workloads draw a fresh order for every
// repetition, so a run's median covers many orders instead of resting
// on one that happens to finish early or late.
func orderStream(seed int64) func(n int) []int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm
}

// dataSeed is the workload.BuildConfig seed of the reference inputs
// generated from the benchmark seed (0 selects workload.RefSeed, the
// reference input the paper tables use).
func dataSeed(seed int64) uint64 { return uint64(seed) }

// buildCost accumulates the host time input generation spent in the
// workload builders and the training profile.
type buildCost struct{ build, profile time.Duration }

// annotatedRef builds bench's reference program from the given data
// seed and moves over the diverge annotations profiled on the training
// input: exp.Annotated's train/ref method with the reference seed
// replaced. The code image does not depend on the seed, so annotations
// transfer by PC.
func annotatedRef(bench string, scale int, seed uint64, parent *telemetry.Span, cost *buildCost) (*prog.Program, error) {
	w, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	sp := parent.Child("build "+bench, catWorkload)
	t0 := time.Now()
	train := w.Build(workload.BuildConfig{Seed: workload.TrainSeed, Scale: scale})
	ref := w.Build(workload.BuildConfig{Seed: seed, Scale: scale})
	cost.build += time.Since(t0)
	sp.End()

	sp = parent.Child("profile "+bench, catProfile)
	t0 = time.Now()
	_, err = profile.Run(train, profile.DefaultOptions())
	cost.profile += time.Since(t0)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", bench, err)
	}
	for pc, d := range train.Diverge {
		ref.MarkDiverge(pc, d)
	}
	return ref, nil
}

// goldenTables splits a dmpexp output (each table followed by a blank
// line) into one text per experiment id, in exp.IDs order.
func goldenTables(all string) (map[string]string, error) {
	ids := exp.IDs()
	out := map[string]string{}
	for i, id := range ids {
		head := "== " + id + ":"
		start := strings.Index(all, head)
		if start < 0 {
			return nil, fmt.Errorf("golden has no table %s", id)
		}
		end := len(all)
		if i+1 < len(ids) {
			end = strings.Index(all, "== "+ids[i+1]+":")
			if end < start {
				return nil, fmt.Errorf("golden tables out of order at %s", id)
			}
		}
		out[id] = all[start:end]
	}
	return out, nil
}

// checkTables compares each rendered table (plus the blank line dmpexp
// prints after it) with the golden text, returning one error per table
// that differs. Tables absent from got failed to render; the caller has
// counted their errors already.
func checkTables(golden map[string]string, got map[string]string) []error {
	var errs []error
	for _, id := range exp.IDs() {
		if text, ok := got[id]; ok && text != golden[id] {
			errs = append(errs, fmt.Errorf("table %s differs from %s", id, goldenPath))
		}
	}
	return errs
}
