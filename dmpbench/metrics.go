package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"dmp/internal/exp"
)

// spec is one metric as BENCHMARK.json declares it.
type spec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. All are host measurements.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"rep_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// Span categories: the layers the benchmark calls into, plus its own
// code ("bench", the repetition root). Self time is reported per layer.
const (
	catBench    = "bench"
	catExp      = "exp"
	catCore     = "core"
	catEmu      = "emu"
	catSample   = "sample"
	catWorkload = "workload"
	catProfile  = "profile"
	catStore    = "store"
	catServe    = "serve"
)

var layerCats = []string{catBench, catExp, catCore, catEmu, catSample, catWorkload, catProfile, catStore, catServe}

// coreConfigNames are the six exact-run machine configurations of the
// core-exact workload, in the order they run.
var coreConfigNames = []string{"baseline", "dhp", "dualpath", "dmp", "enhanced", "enhanced-dynamic"}

// perLayer are the traced pass's metrics. Every workload prints all of
// them; a layer the workload bypasses reads 0. Counts and times are per
// repetition unless the name says otherwise.
var perLayer = buildPerLayer()

func buildPerLayer() []spec {
	lo := func(name, unit string) spec { return spec{name, unit, "lower"} }
	hi := func(name, unit string) spec { return spec{name, unit, "higher"} }
	s := []spec{
		lo("core.run_s", "s"),
		lo("core.new_ms", "ms"),
		hi("core.insts_per_s", "insts/s"),
	}
	for _, c := range coreConfigNames {
		s = append(s, hi("core.insts_per_s."+c, "insts/s"))
	}
	s = append(s,
		hi("core.uops_per_s", "uops/s"),
		lo("core.uops_per_inst", "uops/inst"),
		lo("core.wrong_path_frac", "ratio"),
		lo("core.slowdown_vs_emu", "x"),
		hi("emu.insts_per_s", "insts/s"),
		lo("workload.build_s", "s"),
		lo("profile.run_s", "s"),
		lo("exp.annotate_s", "s"),
	)
	for _, id := range exp.IDs() {
		s = append(s, lo("exp."+id+"_s", "s"))
	}
	s = append(s,
		lo("sched.computed", "count"),
		hi("sched.hits", "count"),
		hi("sched.store_hits", "count"),
		hi("sched.reuse_ratio", "ratio"),
		lo("sched.sim_busy_s", "s"),
		lo("sched.slot_wait_s", "s"),
		lo("sched.singleflight_wait_s", "s"),
		lo("sched.shed", "count"),
		lo("sample.runs", "count"),
		lo("sample.intervals", "count"),
		lo("sample.prefix_s", "s"),
		lo("sample.warm_s", "s"),
		lo("sample.snapshot_s", "s"),
		lo("sample.detailed_s", "s"),
		lo("sample.extrapolate_s", "s"),
		lo("sample.detailed_frac", "ratio"),
		hi("sample.ci_covered", "ratio"),
		hi("sample.insts_per_s", "insts/s"),
		hi("sample.speedup_vs_exact", "x"),
		lo("sample.ipc_err_pct", "%"),
		lo("store.open_ms", "ms"),
		hi("store.entries", "count"),
		lo("store.get_us", "us"),
		lo("store.put_us", "us"),
		lo("serve.headers_ms", "ms"),
		lo("serve.decode_ms", "ms"),
		hi("serve.requests", "count"),
		lo("serve.failed", "count"),
	)
	for _, c := range layerCats {
		s = append(s, lo("self_s."+c, "s"))
	}
	return append(s, lo("trace.overhead_pct", "%"))
}

func perLayerUnit(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// selfTimes sums, per span category, each span's duration minus the
// part of it that its children cover, from a Chrome trace written by
// telemetry.Tracer. Children on async lanes may overlap one another, so
// the covered part is the union of their intervals, clipped to the
// parent's.
func selfTimes(trace []byte) (map[string]float64, error) {
	var events []struct {
		Cat  string  `json:"cat"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
		} `json:"args"`
	}
	if err := json.Unmarshal(trace, &events); err != nil {
		return nil, fmt.Errorf("parse trace: %w", err)
	}
	type iv struct{ lo, hi float64 }
	kids := map[uint64][]iv{}
	for _, e := range events {
		if e.Args.Parent != 0 {
			kids[e.Args.Parent] = append(kids[e.Args.Parent], iv{e.Ts, e.Ts + e.Dur})
		}
	}
	self := map[string]float64{}
	for _, e := range events {
		lo, hi := e.Ts, e.Ts+e.Dur
		cs := kids[e.Args.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, end := 0.0, lo
		for _, c := range cs {
			a, b := max(c.lo, end), min(c.hi, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		self[e.Cat] += (e.Dur - covered) / 1e6
	}
	return self, nil
}
