package sched

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dmp/internal/core"
	"dmp/internal/telemetry"
)

func testKey(bench string) Key {
	return Key{Bench: bench, Scale: 1, Check: true, Cfg: core.DefaultConfig().Canonical()}
}

// fakeBacking is an in-memory Backing with call accounting.
type fakeBacking struct {
	mu     sync.Mutex
	m      map[Key]core.Stats
	loads  atomic.Uint64
	stores atomic.Uint64
}

func newFakeBacking() *fakeBacking { return &fakeBacking{m: map[Key]core.Stats{}} }

func (f *fakeBacking) Load(k Key) (*core.Stats, bool) {
	f.loads.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	st, ok := f.m[k]
	if !ok {
		return nil, false
	}
	cp := st
	return &cp, true
}

func (f *fakeBacking) Store(k Key, st *core.Stats) {
	f.stores.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[k] = *st
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	pool := NewPool(4)
	var runs atomic.Uint64
	const callers = 16
	var wg sync.WaitGroup
	stats := make([]*core.Stats, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.Do(testKey("mcf"), Job{Pool: pool, Run: func(*telemetry.Span) (*core.Stats, error) {
				runs.Add(1)
				return &core.Stats{RetiredInsts: 42, Cycles: 7}, nil
			}})
			if err != nil {
				t.Error(err)
				return
			}
			stats[i] = st
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if stats[i] != stats[0] {
			t.Fatalf("caller %d got a different pointer: results must be shared", i)
		}
	}
	cn := c.Counts()
	if cn.Computed != 1 || cn.Misses != 1 || cn.Hits != callers-1 {
		t.Fatalf("counts = %+v, want 1 computed, 1 miss, %d hits", cn, callers-1)
	}
}

func TestCacheErrorSharedNotStored(t *testing.T) {
	c := NewCache()
	b := newFakeBacking()
	c.SetBacking(b)
	boom := errors.New("boom")
	job := Job{Pool: NewPool(1), Run: func(*telemetry.Span) (*core.Stats, error) { return nil, boom }}
	if _, err := c.Do(testKey("gcc"), job); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := c.Do(testKey("gcc"), job); !errors.Is(err, boom) {
		t.Fatalf("second err = %v, want cached boom", err)
	}
	if got := b.stores.Load(); got != 0 {
		t.Fatalf("failed computation was written to the backing store (%d stores)", got)
	}
}

func TestCacheBackingStoreHit(t *testing.T) {
	b := newFakeBacking()
	pool := NewPool(2)
	want := &core.Stats{RetiredInsts: 99, Cycles: 3}

	c1 := NewCache()
	c1.SetBacking(b)
	var runs atomic.Uint64
	run := func(*telemetry.Span) (*core.Stats, error) { runs.Add(1); return want.Clone(), nil }
	if _, err := c1.Do(testKey("mcf"), Job{Pool: pool, Run: run}); err != nil {
		t.Fatal(err)
	}
	if b.stores.Load() != 1 {
		t.Fatalf("stores = %d, want write-through of the computed result", b.stores.Load())
	}

	// A fresh cache over the same backing (a restarted process) serves
	// the key from the store without recomputing.
	c2 := NewCache()
	c2.SetBacking(b)
	st, err := c2.Do(testKey("mcf"), Job{Pool: pool, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	if *st != *want {
		t.Fatalf("store-served stats = %+v, want %+v", st, want)
	}
	if runs.Load() != 1 {
		t.Fatalf("computation ran %d times across both caches, want 1", runs.Load())
	}
	cn := c2.Counts()
	if cn.StoreHits != 1 || cn.Computed != 0 {
		t.Fatalf("fresh-cache counts = %+v, want 1 store hit, 0 computed", cn)
	}
}

func TestCacheFrozenGuard(t *testing.T) {
	c := NewCache()
	job := Job{Pool: NewPool(1), Run: func(*telemetry.Span) (*core.Stats, error) {
		return &core.Stats{RetiredInsts: 5}, nil
	}}
	st, err := c.Do(testKey("vpr"), job)
	if err != nil {
		t.Fatal(err)
	}
	st.RetiredInsts++ // the forbidden mutation
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mutated cached Stats did not panic on the next hit")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "frozen") || !strings.Contains(msg, "vpr") {
			t.Fatalf("panic %v should name the frozen contract and the offending key", r)
		}
	}()
	c.Do(testKey("vpr"), job)
}

func TestCacheReset(t *testing.T) {
	c := NewCache()
	var runs atomic.Uint64
	job := Job{Pool: NewPool(1), Run: func(*telemetry.Span) (*core.Stats, error) {
		runs.Add(1)
		return &core.Stats{}, nil
	}}
	c.Do(testKey("gap"), job)
	c.Reset()
	if cn := c.Counts(); cn != (Counts{}) {
		t.Fatalf("counts after Reset = %+v, want zero", cn)
	}
	c.Do(testKey("gap"), job)
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want recompute after Reset", runs.Load())
	}
}

func TestPoolBounds(t *testing.T) {
	p := NewPool(2)
	p.Acquire()
	p.Acquire()
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a full pool")
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("TryAcquire failed with a free slot")
	}
	p.Release()
	p.Release()
	if p.Cap() != 2 {
		t.Fatalf("Cap = %d, want 2", p.Cap())
	}
}
