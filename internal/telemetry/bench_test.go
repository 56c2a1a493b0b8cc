package telemetry

import (
	"testing"
	"time"
)

// These benchmarks bound the per-operation cost of the disabled hot
// path — the only telemetry code that runs when no Set is enabled.
// Instrumentation sites execute at per-simulation / per-run density
// (hundreds of calls over a multi-second suite), so single-digit
// nanoseconds per op keeps the whole-suite disabled overhead far
// below the 2% contract in BENCH_telemetry.json; the macrobenchmark
// there confirms the end-to-end number sits within host noise.

var (
	benchCounter = NewCounter("dmp_bench_counter_total", "benchmark fixture")
	benchGauge   = NewGauge("dmp_bench_gauge", "benchmark fixture")
	benchHist    = NewHistogram("dmp_bench_hist_seconds", "benchmark fixture", SecondsBuckets())
)

func BenchmarkCounterInc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchCounter.Inc()
	}
}

func BenchmarkGaugeAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchGauge.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchHist.Observe(0.015)
	}
}

// BenchmarkDisabledGuard is the per-site cost of the Active() load
// that guards every span/feed emission when telemetry is off.
func BenchmarkDisabledGuard(b *testing.B) {
	Enable(nil)
	for i := 0; i < b.N; i++ {
		if tel := Active(); tel != nil {
			b.Fatal("telemetry unexpectedly active")
		}
	}
}

// BenchmarkDisabledSpan is the full nil-safe span sequence an
// instrumentation site pays when disabled: Begin on a nil tracer,
// Child and End on the resulting nil span.
func BenchmarkDisabledSpan(b *testing.B) {
	Enable(nil)
	tr := Active().Tracer()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("bench", "bench")
		child := sp.Child("inner", "bench")
		child.End()
		sp.End()
	}
}

// BenchmarkDisabledSpanAt covers the deferred-emission form used by
// the sample pipeline (a span recorded after the fact from a start
// time and duration).
func BenchmarkDisabledSpanAt(b *testing.B) {
	Enable(nil)
	tr := Active().Tracer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tr.SpanAt("bench", "bench", start, time.Microsecond, 0)
	}
}
