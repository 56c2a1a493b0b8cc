package sched

import (
	"testing"

	"dmp/internal/core"
	"dmp/internal/telemetry"
)

// BenchmarkCacheHit measures the in-memory hit path — the cost every
// deduplicated request pays: one sync.Map load, the frozen-snapshot
// integrity compare, and the counter/metric updates.
func BenchmarkCacheHit(b *testing.B) {
	c := NewCache()
	key := Key{Bench: "mcf", Scale: 1, Check: true, Cfg: core.EnhancedDMPConfig().Canonical()}
	st := &core.Stats{RetiredInsts: 1, Cycles: 2}
	pool := NewPool(1)
	if _, err := c.Do(key, Job{Pool: pool, Run: func(*telemetry.Span) (*core.Stats, error) { return st, nil }}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(key, Job{Pool: pool, Run: func(*telemetry.Span) (*core.Stats, error) {
			b.Fatal("hit path ran the job")
			return nil, nil
		}}); err != nil {
			b.Fatal(err)
		}
	}
}
