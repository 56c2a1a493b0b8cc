package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"dmp/internal/telemetry"
)

// runner holds one invocation's settings and everything it measured.
// Workloads call setup once and loop once; both record their own timings.
type runner struct {
	seed    int64
	order   func(n int) []int // the seed's request orders, one per call
	seconds time.Duration
	// traced selects the second pass: repetitions alternate between
	// untraced and traced, so the same process measures the tracing
	// overhead, and only the per-layer metrics are printed.
	traced bool
	golden string
	work   string // scratch directory inside the checkout, removed at exit

	tr    *telemetry.Tracer
	trBuf bytes.Buffer

	attempted, failed int

	setupS  []float64
	repS    []float64          // wall time of untraced repetitions
	repRSS  []float64          // peak RSS of untraced repetitions, MB
	tracedS []float64          // wall time of traced repetitions
	layer   map[string]float64 // per-layer values, final
	sums    map[string]float64 // per-layer sums over repetitions
}

func newRunner(seed int64, seconds int, traced bool, golden, work string) *runner {
	r := &runner{
		seed:    seed,
		order:   orderStream(seed),
		seconds: time.Duration(seconds) * time.Second,
		traced:  traced,
		golden:  golden,
		work:    work,
		layer:   map[string]float64{},
		sums:    map[string]float64{},
	}
	if traced {
		r.tr = telemetry.NewTracer(&r.trBuf)
	}
	return r
}

// op counts one operation (a simulation, a sampled run or an HTTP
// request) and, when err is non-nil, one failure.
func (r *runner) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// ops counts n operations that did not fail on their own.
func (r *runner) ops(n int) { r.attempted += n }

// fail records a failure that is not an operation's own error, such as a
// golden mismatch found after the operations returned.
func (r *runner) fail(err error) {
	r.failed++
	fmt.Printf("# FAIL %v\n", err)
}

// setup runs fn n times, recording each duration; setup_s is their
// median. Only the last run's state is kept by fn's caller.
func (r *runner) setup(n int, fn func() error) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	return nil
}

// loop runs rep until the measuring time is used up, and at least once.
// rep returns the wall time of its timed part; checks it runs afterwards
// are not counted. Each repetition starts with the freed memory returned
// to the system and the peak RSS count restarted, so peak_rss_mb is the
// median of the repetitions' own peaks, and set-up and reference runs
// before the loop do not count.
//
// In the traced pass loop alternates untraced and traced repetitions and
// runs at least one of each; a traced repetition gets a root span that
// every span of that repetition descends from.
func (r *runner) loop(rep func(root *telemetry.Span) (time.Duration, error)) error {
	start := time.Now()
	for i := 0; ; i++ {
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var root *telemetry.Span
		if r.traced && i%2 == 1 {
			root = r.tr.Begin(fmt.Sprintf("rep %d", i), catBench)
		}
		d, err := rep(root)
		if err != nil {
			return err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		fmt.Printf("# rep %d traced=%v rep_s=%.4f peak_rss_mb=%.1f\n", i, root != nil, d.Seconds(), rss)
		if root != nil {
			r.tracedS = append(r.tracedS, d.Seconds())
		} else {
			r.repS = append(r.repS, d.Seconds())
			r.repRSS = append(r.repRSS, rss)
		}
		done := time.Since(start) >= r.seconds
		if done && (!r.traced || len(r.tracedS) > 0) {
			return nil
		}
	}
}

// reps is the number of repetitions run in either pass.
func (r *runner) reps() int { return len(r.repS) + len(r.tracedS) }

// set records a per-layer metric's final value.
func (r *runner) set(name string, v float64) { r.layer[name] = v }

// add adds to a per-repetition metric: unless set overrides it, the
// reported value is the sum divided by the number of repetitions.
func (r *runner) add(name string, v float64) { r.sums[name] += v }

// result assembles the final line: the end-to-end metrics, or with
// tracing the per-layer ones. A per-layer name a workload recorded but
// perLayer does not declare is a programming error and fails the run.
func (r *runner) result() (*result, error) {
	if len(r.repS) == 0 || len(r.setupS) == 0 {
		return nil, fmt.Errorf("the workload ran no set-up or no untraced repetition")
	}
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	printDist("setup_s", r.setupS)
	printDist("rep_s", r.repS)
	printDist("peak_rss_mb", r.repRSS)
	if !r.traced {
		vals := map[string]float64{
			"setup_s":     median(r.setupS),
			"rep_s":       median(r.repS),
			"peak_rss_mb": median(r.repRSS),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res, nil
	}

	printDist("traced_rep_s", r.tracedS)
	if err := r.tr.Close(); err != nil {
		return nil, err
	}
	self, err := selfTimes(r.trBuf.Bytes())
	if err != nil {
		return nil, err
	}
	for _, cat := range layerCats {
		r.set("self_s."+cat, self[cat]/float64(len(r.tracedS)))
	}
	r.set("trace.overhead_pct", 100*(median(r.tracedS)/median(r.repS)-1))
	for name, v := range r.sums {
		if _, ok := r.layer[name]; !ok {
			r.set(name, v/float64(r.reps()))
		}
	}
	for name := range r.layer {
		if perLayerUnit(name) == "" {
			return nil, fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{r.layer[m.name], m.unit}
	}
	return res, nil
}

// printDist prints a timing's sample count, median and quartiles. With
// fewer than eleven samples no percentile above the median has ten
// samples beyond it, so only the median is a headline.
func printDist(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	q1, q3 := quartiles(xs)
	fmt.Printf("# %-14s n=%d median=%.4f q1=%.4f q3=%.4f min=%.4f max=%.4f\n",
		name, len(xs), median(xs), q1, q3, minOf(xs), maxOf(xs))
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minOf(xs []float64) float64 { return sorted(xs)[0] }
func maxOf(xs []float64) float64 { return sorted(xs)[len(xs)-1] }

// peakRSSMB reads the process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's peak RSS count.
func resetPeakRSS() error {
	runtime.GC() // sync.Pool contents survive one collection
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// registry readings: the program's always-on counters.

func counterVal(s telemetry.Snapshot, name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return float64(c.Value)
		}
	}
	return 0
}

func histVal(s telemetry.Snapshot, name string) (count, sum float64) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return float64(h.Count), h.Sum
		}
	}
	return 0, 0
}
