// Package cow provides generation-stamped copy-on-write containers for
// the trained microarchitectural state sampled simulation snapshots:
// cache sets, predictor weight rows, BTB sets, and flat counter tables.
//
// The problem shape: a continuously warmed structure is snapshotted once
// per sampling period, and BOTH sides keep mutating — the warmer trains
// on every subsequent instruction, and the detailed interval machine the
// snapshot seeds trains during its measured window. A deep copy per
// snapshot is correct but O(size); these containers make the snapshot
// O(metadata) by freezing the current storage and having EACH side copy
// a group privately the first time it writes it. Between two snapshots
// only a small fraction of groups is typically dirtied (the sets and
// rows the instruction stream actually touches), so the total bytes
// copied drop with locality instead of scaling with table size.
//
// Concurrency contract: Clone must be called on the goroutine that owns
// the instance, and the clone handed to another goroutine only through a
// synchronizing operation (channel send, WaitGroup — anything that
// establishes happens-before). After that, the two instances never write
// shared storage in place: every write goes through Mut, which copies
// the group into private storage first. Frozen groups are only ever
// read, so concurrent use of the parent and the clone is race-free.
package cow

// maxBlockGroups caps how many groups one private arena block holds.
// Blocks start at one group and double up to this cap, so a clone that
// writes a handful of groups (an interval machine's ITC, whose index
// scatters over every chunk) allocates about what it copies, while a
// burst of first-writes still amortizes allocation over many groups.
const maxBlockGroups = 64

// Table is a copy-on-write array of equally sized groups (cache sets,
// weight rows). Reads go through RO, writes through Mut. The zero Table
// is not usable; build with NewTable.
type Table[T any] struct {
	groups [][]T    // per-group storage; may alias other Tables' groups
	gen    []uint32 // gen[i] == own ⇔ groups[i] is private to this table
	own    uint32   // this instance's ownership generation (never 0)
	gsize  int      // uniform group length
	arena  []T      // current private block; groups copied on write land here
}

// NewTable builds a table of ngroups zero-valued groups of gsize
// elements each, all privately owned, backed by one flat allocation.
func NewTable[T any](ngroups, gsize int) Table[T] {
	if ngroups <= 0 || gsize <= 0 {
		panic("cow: table dimensions must be positive")
	}
	flat := make([]T, ngroups*gsize)
	t := Table[T]{groups: make([][]T, ngroups), gen: make([]uint32, ngroups), own: 1, gsize: gsize}
	for i := range t.groups {
		t.groups[i] = flat[i*gsize : (i+1)*gsize : (i+1)*gsize]
		t.gen[i] = 1
	}
	return t
}

// Len returns the number of groups.
func (t *Table[T]) Len() int { return len(t.groups) }

// RO returns group i for reading only. The caller must not write through
// the returned slice: it may alias storage shared with a snapshot.
func (t *Table[T]) RO(i int) []T { return t.groups[i] }

// Mut returns group i for writing, copying it into private storage first
// if it is (or may be) shared with a snapshot. The fast path — group
// already private — is a generation compare.
//
//dmp:hotpath
func (t *Table[T]) Mut(i int) []T {
	if t.gen[i] == t.own {
		return t.groups[i]
	}
	return t.unshare(i)
}

// unshare privately copies group i (kept out of Mut so the fast path
// inlines into hot loops).
//
//dmp:hotpath
func (t *Table[T]) unshare(i int) []T {
	if len(t.arena)+t.gsize > cap(t.arena) {
		n := min(max(1, 2*cap(t.arena)/t.gsize), maxBlockGroups)
		t.arena = make([]T, 0, n*t.gsize) //dmp:allow hotalloc -- doubling arena blocks amortize allocation over first-writes
	}
	off := len(t.arena)
	t.arena = append(t.arena, t.groups[i]...)
	g := t.arena[off:len(t.arena):len(t.arena)]
	t.groups[i] = g
	t.gen[i] = t.own
	return g
}

// Clone snapshots the table: O(#groups) header copies, no element
// copies. The receiver's privately owned groups become shared (its next
// write to each will re-copy), and the returned table shares everything.
//
//dmp:hotpath
func (t *Table[T]) Clone() Table[T] {
	t.freeze()
	//dmp:allow hotalloc -- the snapshot's header arrays ARE the O(metadata) cost Clone promises, once per sampling period
	c := Table[T]{groups: make([][]T, len(t.groups)), gen: make([]uint32, len(t.groups)), own: 1, gsize: t.gsize}
	copy(c.groups, t.groups)
	return c
}

// freeze makes every group shared: the receiver's next write to each
// re-copies it.
func (t *Table[T]) freeze() {
	t.own++
	if t.own == 0 { // wrapped: nothing is provably private any more
		t.own = 1
		clear(t.gen)
	}
}

// CloneInto is Clone writing the snapshot into dst instead of allocating
// one: dst must be a dead table of the same dimensions — a finished
// clone nothing reads any more, and from which no live table was cloned.
// Its header arrays are overwritten and its last private block is reused
// for the new snapshot's first writes. A dst of other dimensions (or the
// zero Table) gets fresh headers, as Clone would.
//
//dmp:hotpath
func (t *Table[T]) CloneInto(dst *Table[T]) {
	if len(dst.groups) != len(t.groups) || dst.gsize != t.gsize {
		*dst = t.Clone()
		return
	}
	t.freeze()
	copy(dst.groups, t.groups)
	clear(dst.gen)
	dst.own = 1
	dst.arena = dst.arena[:0]
}

// Flat is a copy-on-write flat array of T, chunked into fixed-size
// groups so a write only privatizes its chunk. Used for the direct-
// mapped counter and target tables (gshare, bimodal, JRS, ITC).
type Flat[T any] struct {
	tab   Table[T]
	shift uint
	mask  int
	n     int
}

// flatShift picks the chunk size for an n-element flat table: 256
// elements per chunk, or the whole table when it is smaller.
func flatShift(n int) uint {
	s := uint(8)
	for n < 1<<s {
		s--
	}
	return s
}

// NewFlat builds a zero-valued flat COW array of n elements (n must be a
// power of two, which every table in this simulator is).
func NewFlat[T any](n int) Flat[T] {
	if n <= 0 || n&(n-1) != 0 {
		panic("cow: flat length must be a power of two")
	}
	sh := flatShift(n)
	return Flat[T]{tab: NewTable[T](n>>sh, 1<<sh), shift: sh, mask: 1<<sh - 1, n: n}
}

// Len returns the element count.
func (f *Flat[T]) Len() int { return f.n }

// At reads element i.
//
//dmp:hotpath
func (f *Flat[T]) At(i int) T { return f.tab.groups[i>>f.shift][i&f.mask] }

// Mut returns a pointer to element i for writing, privatizing its chunk
// first if shared.
//
//dmp:hotpath
func (f *Flat[T]) Mut(i int) *T {
	g := f.tab.Mut(i >> f.shift)
	return &g[i&f.mask]
}

// Clone snapshots the array (see Table.Clone).
//
//dmp:hotpath
func (f *Flat[T]) Clone() Flat[T] {
	return Flat[T]{tab: f.tab.Clone(), shift: f.shift, mask: f.mask, n: f.n}
}

// CloneInto snapshots the array into dst, a dead flat array of the same
// length (see Table.CloneInto).
//
//dmp:hotpath
func (f *Flat[T]) CloneInto(dst *Flat[T]) {
	f.tab.CloneInto(&dst.tab)
	dst.shift, dst.mask, dst.n = f.shift, f.mask, f.n
}
