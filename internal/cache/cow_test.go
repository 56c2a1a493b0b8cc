package cache

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// COW isolation pins (mirrors core's TestSnapshotIsolatesWarmState at
// the component level): after Clone, training either copy must not leak
// into the other — in either direction — and the hierarchy snapshot must
// stay O(metadata) regardless of cache size.

func cowCache() *Cache {
	c := New(Config{SizeBytes: 4096, Assoc: 4, LineBytes: 64, Latency: 2})
	for a := uint64(0); a < 4096; a += 64 {
		c.Access(a) // warm every set
	}
	return c
}

// hitProfile probes every warmed line without mutating the probe target
// (Access updates LRU, so probe a throwaway clone).
func hitProfile(c *Cache) [64]bool {
	var out [64]bool
	probe := c.Clone()
	for i := range out {
		out[i] = probe.Access(uint64(i) * 64)
	}
	return out
}

func TestCacheCloneIsolation(t *testing.T) {
	c := cowCache()
	before := hitProfile(c)
	cl := c.Clone()

	// Thrash the clone: distinct tags, same sets — evicts everything.
	for a := uint64(1 << 20); a < 1<<20+4*4096; a += 64 {
		cl.Access(a)
	}
	if got := hitProfile(c); got != before {
		t.Error("thrashing the clone evicted lines from the original")
	}

	// And the reverse: thrash the original, the clone's earlier state
	// (now fully the thrash lines) must be unaffected.
	cl2 := c.Clone()
	snap := hitProfile(cl2)
	for a := uint64(2 << 20); a < 2<<20+4*4096; a += 64 {
		c.Access(a)
	}
	if got := hitProfile(cl2); got != snap {
		t.Error("thrashing the original evicted lines from the clone")
	}
}

func TestCacheCloneOfClone(t *testing.T) {
	a := cowCache()
	b := a.Clone()
	c := b.Clone()
	b.Access(1 << 30) // mutate the middle generation only
	if !c.Access(0) {
		t.Error("grandchild lost a line the middle generation evicted locally")
	}
	if !a.Access(0) {
		t.Error("original lost a line the middle generation evicted locally")
	}
}

// TestHierarchyCloneAllocs pins that a hierarchy snapshot is O(metadata):
// a constant number of small header allocations, independent of how much
// cache state is resident. Deep-copying any level's sets would blow this
// budget immediately (the old implementation allocated per set).
func TestHierarchyCloneAllocs(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	for a := uint64(0); a < 1<<20; a += 64 {
		h.DataLatency(a) // make every level big and dirty
	}
	allocs := testing.AllocsPerRun(100, func() {
		sink = h.Clone()
	})
	// 3 Cache structs + 3 Hierarchy-internal COW table headers (groups +
	// gen slices each) + the Hierarchy struct itself. Budget 16 leaves
	// headroom for runtime noise while still catching any per-set copy.
	if allocs > 16 {
		t.Errorf("Hierarchy.Clone allocates %v objects; want O(metadata) (<= 16)", allocs)
	}
}

var sink *Hierarchy

func BenchmarkHierarchyClone(b *testing.B) {
	h := NewHierarchy(DefaultHierarchyConfig())
	for a := uint64(0); a < 1<<20; a += 64 {
		h.DataLatency(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = h.Clone()
	}
}

// lruOrder lists each set's valid tags from least to most recently used:
// the whole replacement state, with the LRU clock's absolute values
// factored out.
func lruOrder(c *Cache) [][]uint64 {
	out := make([][]uint64, c.sets.Len())
	for i := range out {
		set := append([]line(nil), c.sets.RO(i)...)
		slices.SortFunc(set, func(a, b line) int { return cmp.Compare(a.lru, b.lru) })
		for _, l := range set {
			if l.valid {
				out[i] = append(out[i], l.tag)
			}
		}
	}
	return out
}

// TestWarmFetchMatchesEveryFetch pins the functional-warming fetch
// filter: skipping a fetch from the line the previous fetch touched
// leaves L1I (and L2) with the same lines in the same LRU order as
// fetching every instruction. The stream has warming's shape — straight
// runs of instruction words, taken jumps, data accesses in between, and
// wrong-path excursions that leave and re-enter a line — and both
// hierarchies are cloned midway, the clone continuing the stream.
func TestWarmFetchMatchesEveryFetch(t *testing.T) {
	small := HierarchyConfig{
		L1I:        Config{SizeBytes: 2048, Assoc: 2, LineBytes: 64, Latency: 2},
		L1D:        Config{SizeBytes: 2048, Assoc: 4, LineBytes: 64, Latency: 2},
		L2:         Config{SizeBytes: 16384, Assoc: 8, LineBytes: 64, Latency: 10},
		MemLatency: 300,
	}
	filtered, every := NewHierarchy(small), NewHierarchy(small)
	rng := rand.New(rand.NewSource(3))
	pc, skipped := uint64(0), 0
	for n := 0; n < 200000; n++ {
		if n == 100000 {
			filtered, every = filtered.Clone(), every.Clone()
		}
		addr := pc * 8
		if addr>>6+1 == filtered.lastI {
			skipped++
		}
		filtered.WarmFetch(addr)
		every.InstLatency(addr)
		switch r := rng.Intn(100); {
		case r < 20:
			d := uint64(rng.Intn(1 << 16))
			filtered.DataLatency(d)
			every.DataLatency(d)
			pc++
		case r < 28:
			pc = uint64(rng.Intn(4096)) // taken branch or excursion start
		case r < 32:
			pc-- // a loop back-edge to the same line
		default:
			pc++
		}
	}
	if skipped == 0 {
		t.Fatal("the stream never repeated a line; the filter was not exercised")
	}
	for name, pair := range map[string][2]*Cache{"L1I": {filtered.L1I, every.L1I}, "L2": {filtered.L2, every.L2}} {
		got, want := lruOrder(pair[0]), lruOrder(pair[1])
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s replacement state differs with the fetch filter", name)
		}
	}
	t.Logf("%d of 200000 fetches skipped", skipped)
}
