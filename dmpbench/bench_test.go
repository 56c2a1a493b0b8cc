package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/sample"
	"dmp/internal/serve"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e, layer []spec
	for _, m := range f.EndToEnd {
		checkName(m.Name)
		e2e = append(e2e, spec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range f.PerLayer {
		checkName(m.Name)
		layer = append(layer, spec{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\nbenchmark      %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %v\nbenchmark      %v", layer, perLayer)
	}
	for _, m := range append(e2e, layer...) {
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	hash := func(seed int64) string {
		t.Helper()
		var cost buildCost
		p, err := annotatedRef("mcf", 1, dataSeed(seed), nil, &cost)
		if err != nil {
			t.Fatal(err)
		}
		return p.Hash()
	}
	if a, b := hash(5), hash(5); a != b {
		t.Errorf("seed 5 built two different programs: %s, %s", a, b)
	}
	if a, b := hash(5), hash(6); a == b {
		t.Errorf("seeds 5 and 6 built the same reference data %s", a)
	}
	a, b, c := orderStream(5), orderStream(5), orderStream(6)
	for rep := 0; rep < 3; rep++ {
		oa, ob, oc := a(16), b(16), c(16)
		if !reflect.DeepEqual(oa, ob) {
			t.Errorf("repetition %d: seed 5 gave two request orders: %v, %v", rep, oa, ob)
		}
		if reflect.DeepEqual(oa, oc) {
			t.Errorf("repetition %d: seeds 5 and 6 gave the same request order %v", rep, oa)
		}
	}
}

func goldenForTest(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../" + goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := goldenTables(string(data))
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

func TestTableCheckRejectsFlippedByte(t *testing.T) {
	golden := goldenForTest(t)
	got := map[string]string{}
	for id, text := range golden {
		got[id] = text
	}
	if errs := checkTables(golden, got); len(errs) != 0 {
		t.Fatalf("golden rejected against itself: %v", errs)
	}
	b := []byte(got["fig7"])
	b[len(b)/2] ^= 1
	got["fig7"] = string(b)
	if errs := checkTables(golden, got); len(errs) != 1 {
		t.Errorf("one flipped byte in fig7 gave %d errors, want 1: %v", len(errs), errs)
	}
}

func TestWarmCheckRejectsSimulation(t *testing.T) {
	golden := goldenForTest(t)
	run := serve.RunStatus{State: "done", Counts: &serve.CacheDelta{StoreHits: 405}}
	for _, id := range exp.IDs() {
		run.Tables = append(run.Tables, serve.TableResult{ID: id, Text: strings.TrimSuffix(golden[id], "\n")})
	}
	if errs := warmErrors(golden, &run); len(errs) != 0 {
		t.Fatalf("a correct warm response was rejected: %v", errs)
	}
	run.Counts.Simulated = 1
	if errs := warmErrors(golden, &run); len(errs) != 1 {
		t.Errorf("Counts.Simulated = 1 gave %d errors, want 1", len(errs))
	}
	run.Counts.Simulated = 0
	run.Tables = run.Tables[1:]
	if errs := warmErrors(golden, &run); len(errs) != 1 {
		t.Errorf("a missing table gave %d errors, want 1", len(errs))
	}
}

func TestArchCheckRejectsWrongRegister(t *testing.T) {
	var cost buildCost
	p, err := annotatedRef("gcc", 1, dataSeed(defaultSeed), nil, &cost)
	if err != nil {
		t.Fatal(err)
	}
	want, err := emulate(p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(p, coreConfig("enhanced"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := machineState(m, st)
	if err := checkArch(got, want); err != nil {
		t.Fatalf("a correct run was rejected: %v", err)
	}
	bad := got
	bad.regs[3]++
	if checkArch(bad, want) == nil {
		t.Error("a wrong register passed the check")
	}
	bad = got
	bad.insts--
	if checkArch(bad, want) == nil {
		t.Error("a short instruction count passed the check")
	}
	bad = got
	bad.halted = false
	if checkArch(bad, want) == nil {
		t.Error("a run that did not halt passed the check")
	}
}

func TestSampledCheck(t *testing.T) {
	ref := exactRef{insts: 1000, ipc: 1}
	ok := &sample.Result{TotalInsts: 1000, K: 3, Extrapolated: &core.Stats{}}
	if err := checkSampled(ok, ref); err != nil {
		t.Fatalf("a correct sampled run was rejected: %v", err)
	}
	if checkSampled(&sample.Result{TotalInsts: 999, K: 3}, ref) == nil {
		t.Error("a short instruction count passed the check")
	}
	if checkSampled(&sample.Result{TotalInsts: 1000}, ref) == nil {
		t.Error("a run without intervals passed the check")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; want 3.5, 160", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	// A 100us root with two overlapping async children (10-40, 30-60) and
	// one nested grandchild (35-45) inside the second.
	trace := `[
{"name":"rep","cat":"bench","ph":"X","ts":0,"dur":100,"pid":1,"tid":1,"args":{"id":1,"parent":0}},
{"name":"a","cat":"exp","ph":"X","ts":10,"dur":30,"pid":1,"tid":2,"args":{"id":2,"parent":1}},
{"name":"b","cat":"exp","ph":"X","ts":30,"dur":30,"pid":1,"tid":3,"args":{"id":3,"parent":1}},
{"name":"c","cat":"core","ph":"X","ts":35,"dur":10,"pid":1,"tid":3,"args":{"id":4,"parent":3}}
]`
	self, err := selfTimes([]byte(trace))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"bench": 50e-6, "exp": 50e-6, "core": 10e-6}
	for cat, w := range want {
		if d := self[cat] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self[%s] = %v, want %v", cat, self[cat], w)
		}
	}
}
