package telemetry_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"dmp/internal/core"
	"dmp/internal/exp"
	"dmp/internal/telemetry"
)

// runMCF runs mcf at scale 1 on the enhanced DMP configuration (the
// configuration that exercises every probe hook: episodes, early exit,
// MDB, select-uops), optionally with a probe attached. cfmSource ""
// keeps the annotated CFM points; "dynamic" learns them at run time.
func runMCF(t *testing.T, loops bool, cfmSource string, p *core.Probe) *core.Stats {
	t.Helper()
	prg, err := exp.Annotated("mcf", 1)
	if loops {
		prg, err = exp.AnnotatedLoops("mcf", 1)
	}
	if err != nil {
		t.Fatalf("annotate: %v", err)
	}
	cfg := core.EnhancedDMPConfig()
	cfg.EnableLoopDiverge = loops
	cfg.CFMSource = cfmSource
	m, err := core.New(prg, cfg)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	if p != nil {
		m.SetProbe(p)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return st
}

// TestObserversDoNotPerturb is the tentpole invariant: attaching every
// sink at once leaves core.Stats byte-identical to an unobserved run
// (so golden experiment tables cannot move), and each sink's own
// aggregation agrees with the machine's: the episode timeline's
// exit-case tally equals Stats.ExitCases, the interval CSV's summed
// deltas equal the final Stats, and the Chrome trace is valid non-empty
// JSON. The dynamic-CFM case makes the merge-predictor columns nonzero.
func TestObserversDoNotPerturb(t *testing.T) {
	for _, tc := range []struct {
		name      string
		loops     bool
		cfmSource string
	}{
		{"loops=false", false, ""},
		{"loops=true", true, ""},
		{"cfm=dynamic", false, "dynamic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runMCF(t, tc.loops, tc.cfmSource, nil)

			var ptBuf, evBuf, ivBuf bytes.Buffer
			trace := telemetry.NewPipetrace(&ptBuf, telemetry.FormatChrome)
			elog := telemetry.NewEpisodeLog(&evBuf)
			samp := telemetry.NewIntervalSampler(&ivBuf, 5000)
			feed := telemetry.NewFeed(io.Discard)
			progress := telemetry.ProgressProbe(feed, time.Nanosecond)
			st := runMCF(t, tc.loops, tc.cfmSource, telemetry.Tee(trace.Probe(), elog.Probe(), samp.Probe(), progress))
			if err := trace.Close(); err != nil {
				t.Fatalf("pipetrace close: %v", err)
			}
			if err := elog.Close(); err != nil {
				t.Fatalf("episode log close: %v", err)
			}
			if err := samp.Close(); err != nil {
				t.Fatalf("sampler close: %v", err)
			}

			// Byte-identical Stats (WallSeconds is host time, excluded).
			a, b := *base, *st
			a.WallSeconds, b.WallSeconds = 0, 0
			if a != b {
				t.Errorf("observed run diverged from unobserved run:\n  base: %+v\n  obs:  %+v", a, b)
			}

			// Episode timeline attribution == the machine's Table-1 tally.
			if elog.Cases() != st.ExitCases {
				t.Errorf("episode log cases %v != Stats.ExitCases %v", elog.Cases(), st.ExitCases)
			}
			if st.Episodes == 0 {
				t.Fatal("run produced no episodes; test exercises nothing")
			}
			if tc.cfmSource == "dynamic" && (st.MergeTrainings == 0 || st.DynCFMEpisodes == 0) {
				t.Fatalf("dynamic-CFM run left the merge counters at 0 (trainings %d, learned-CFM episodes %d)",
					st.MergeTrainings, st.DynCFMEpisodes)
			}
			if !strings.Contains(evBuf.String(), `"event":"enter"`) ||
				!strings.Contains(evBuf.String(), `"event":"resolve"`) {
				t.Error("episode timeline missing enter/resolve events")
			}

			// Chrome trace: valid JSON, non-empty, per-uop args present.
			var events []map[string]any
			if err := json.Unmarshal(ptBuf.Bytes(), &events); err != nil {
				t.Fatalf("chrome trace does not parse: %v", err)
			}
			if len(events) == 0 {
				t.Fatal("chrome trace is empty")
			}
			for _, e := range events[:1] {
				for _, k := range []string{"name", "ph", "ts", "dur", "args"} {
					if _, ok := e[k]; !ok {
						t.Errorf("trace event missing %q: %v", k, e)
					}
				}
			}

			// Interval CSV column sums == final Stats.
			checkIntervalSums(t, ivBuf.String(), st)
		})
	}
}

// checkIntervalSums sums every delta column of the interval CSV and
// compares against the final Stats counter it samples.
func checkIntervalSums(t *testing.T, csv string, st *core.Stats) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		t.Fatalf("interval CSV has no data rows:\n%s", csv)
	}
	cols := strings.Split(strings.TrimSpace(lines[0]), ",")
	sums := make(map[string]uint64, len(cols))
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(cols) {
			t.Fatalf("row has %d fields, header has %d: %q", len(fields), len(cols), line)
		}
		for i, f := range fields {
			if cols[i] == "cycle" || cols[i] == "ipc" {
				continue // absolute / derived columns
			}
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				t.Fatalf("column %s: %v", cols[i], err)
			}
			sums[cols[i]] += v
		}
	}
	want := map[string]uint64{
		"cycles": st.Cycles, "retired": st.RetiredInsts, "retired_false": st.RetiredFalse,
		"selects": st.RetiredSelects, "markers": st.RetiredMarkers,
		"fetched": st.FetchedInsts, "fetched_markers": st.FetchedMarkers,
		"wrong_cd": st.FetchedWrongCD, "wrong_ci": st.FetchedWrongCI,
		"exec": st.ExecutedInsts, "exec_selects": st.ExecutedSelects, "exec_markers": st.ExecutedMarkers,
		"branches": st.RetiredBranches, "mispredicts": st.RetiredMispredicts, "flushes": st.Flushes,
		"episodes": st.Episodes, "early_exits": st.EarlyExits, "mdb": st.MDBConversions,
		"exit0": st.ExitCases[0], "exit1": st.ExitCases[1], "exit2": st.ExitCases[2],
		"exit3": st.ExitCases[3], "exit4": st.ExitCases[4], "exit5": st.ExitCases[5], "exit6": st.ExitCases[6],
		"lowconf_ok": st.LowConfCorrect, "lowconf_bad": st.LowConfWrong,
		"l1i": st.L1IMisses, "l1d": st.L1DMisses, "l2": st.L2Misses,
		"load_stalls": st.LoadStalls, "oracle_pauses": st.OraclePauses, "oracle_resumes": st.OracleResumes,
		"uops": st.FetchedUops, "merge_hits": st.MergeHits, "merge_misses": st.MergeMisses,
		"merge_evictions": st.MergeEvictions, "merge_trainings": st.MergeTrainings,
		"merge_mispredicts": st.MergeMispredicts, "dyn_cfm_episodes": st.DynCFMEpisodes,
	}
	if len(want) != len(cols)-2 {
		t.Errorf("column map covers %d columns, CSV has %d delta columns", len(want), len(cols)-2)
	}
	for col, w := range want {
		if sums[col] != w {
			t.Errorf("summed column %s = %d, final Stats = %d", col, sums[col], w)
		}
	}
}

// TestPipetraceText smoke-checks the text renderer: every retired and
// squashed uop gets a line with its stage cycles.
func TestPipetraceText(t *testing.T) {
	var buf bytes.Buffer
	trace := telemetry.NewPipetrace(&buf, telemetry.FormatText)
	runMCF(t, false, "", trace.Probe())
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "retire=") {
		t.Error("text pipetrace has no retire lines")
	}
	if !strings.Contains(out, "select-uop") {
		t.Error("text pipetrace records no select-uops on an enhanced DMP run")
	}
	n := strings.Count(out, "\n")
	if n < 1000 {
		t.Errorf("text pipetrace suspiciously short: %d lines", n)
	}
}

// TestTee pins the Tick multiplexing: children with different cadences
// each fire exactly on their own cycle multiples, and the merged
// cadence is the gcd.
func TestTee(t *testing.T) {
	var a, b []uint64
	pa := &core.Probe{TickEvery: 6, Tick: func(c uint64, _ *core.Stats) { a = append(a, c) }}
	pb := &core.Probe{TickEvery: 10, Tick: func(c uint64, _ *core.Stats) { b = append(b, c) }}
	tee := telemetry.Tee(pa, pb, nil)
	if tee.TickEvery != 2 {
		t.Fatalf("merged TickEvery = %d, want gcd 2", tee.TickEvery)
	}
	for c := uint64(2); c <= 30; c += 2 {
		tee.Tick(c, nil)
	}
	if want := []uint64{6, 12, 18, 24, 30}; !equalU64(a, want) {
		t.Errorf("child a fired at %v, want %v", a, want)
	}
	if want := []uint64{10, 20, 30}; !equalU64(b, want) {
		t.Errorf("child b fired at %v, want %v", b, want)
	}

	// A single probe passes through unchanged; an empty tee is inert.
	if got := telemetry.Tee(pa); got != pa {
		t.Error("single-probe Tee did not pass through")
	}
	if got := telemetry.Tee(); got.Uop != nil || got.Tick != nil || got.Done != nil {
		t.Error("empty Tee has callbacks")
	}
}

// TestProgressProbe pins the progress path: the probe emits "progress"
// events onto the feed only once its wall-time period has passed, and
// the Progress renderer prints one line per event on a pipe.
func TestProgressProbe(t *testing.T) {
	var events []telemetry.Event
	feed := telemetry.NewFeed(nil)
	feed.Subscribe(func(ev telemetry.Event) { events = append(events, ev) })
	runMCF(t, false, "", telemetry.ProgressProbe(feed, time.Hour))
	if len(events) != 0 {
		t.Fatalf("hour-period probe emitted %d events: %+v", len(events), events)
	}

	var out bytes.Buffer
	feed = telemetry.NewFeed(nil)
	p := telemetry.NewProgress(&out, false)
	feed.Subscribe(p.Event)
	feed.Subscribe(func(ev telemetry.Event) { events = append(events, ev) })
	runMCF(t, false, "", telemetry.ProgressProbe(feed, time.Nanosecond))
	p.Finish()
	if len(events) == 0 {
		t.Fatal("nanosecond-period probe emitted no events")
	}
	for _, ev := range events {
		if ev.Kind != "progress" || !strings.Contains(ev.Msg, "Mcycles/s") {
			t.Fatalf("unexpected event %+v", ev)
		}
	}
	if n := strings.Count(out.String(), "\n"); n != len(events) {
		t.Errorf("pipe renderer printed %d lines for %d progress events", n, len(events))
	}
}

// TestTeeTickCadenceEdges covers the Tick-merging corners: a lone
// tick sink with no cadence gets the default; a zero cadence mixed
// with a nonzero one is defaulted before the gcd; and huge coprime
// cadences degrade to a gcd of 1 without wrapping, with each child
// still firing only on its own multiples.
func TestTeeTickCadenceEdges(t *testing.T) {
	fired := func(dst *[]uint64) func(uint64, *core.Stats) {
		return func(c uint64, _ *core.Stats) { *dst = append(*dst, c) }
	}

	// Single tick sink, unset cadence: defaulted, passed through.
	var solo []uint64
	ps := &core.Probe{Tick: fired(&solo)}
	if tee := telemetry.Tee(ps); tee.TickEvery != core.DefaultTickEvery {
		t.Errorf("solo unset cadence = %d, want default %d", tee.TickEvery, core.DefaultTickEvery)
	}

	// TickEvery=0 mixed with nonzero: the zero child runs at the
	// default cadence and the merged cadence is the gcd of the pair.
	var a, b []uint64
	def := uint64(core.DefaultTickEvery)
	pa := &core.Probe{Tick: fired(&a)}
	pb := &core.Probe{TickEvery: 3 * def, Tick: fired(&b)}
	tee := telemetry.Tee(pa, pb)
	if tee.TickEvery != def {
		t.Fatalf("merged cadence = %d, want %d", tee.TickEvery, def)
	}
	for c := def; c <= 3*def; c += def {
		tee.Tick(c, nil)
	}
	if want := []uint64{def, 2 * def, 3 * def}; !equalU64(a, want) {
		t.Errorf("defaulted child fired at %v, want %v", a, want)
	}
	if want := []uint64{3 * def}; !equalU64(b, want) {
		t.Errorf("3x child fired at %v, want %v", b, want)
	}

	// Huge coprime cadences: gcd collapses to 1 (tick every cycle)
	// and the per-child re-check keeps firing exact near 2^62.
	var c, d []uint64
	big := uint64(1) << 62
	pc := &core.Probe{TickEvery: big, Tick: fired(&c)}
	pd := &core.Probe{TickEvery: big - 1, Tick: fired(&d)}
	tee = telemetry.Tee(pc, pd)
	if tee.TickEvery != 1 {
		t.Fatalf("coprime merged cadence = %d, want 1", tee.TickEvery)
	}
	tee.Tick(big-1, nil)
	tee.Tick(big, nil)
	tee.Tick(2*(big-1), nil)
	if want := []uint64{big}; !equalU64(c, want) {
		t.Errorf("2^62 child fired at %v, want %v", c, want)
	}
	if want := []uint64{big - 1, 2 * (big - 1)}; !equalU64(d, want) {
		t.Errorf("2^62-1 child fired at %v, want %v", d, want)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
