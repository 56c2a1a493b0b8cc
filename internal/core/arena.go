package core

import (
	"sync"

	"dmp/internal/emu"
)

// uopArena allocates the machine's uops from chunked slabs instead of one
// heap object per fetched uop. Slabs come from a process-wide sync.Pool
// shared by all machines: a slab is zeroed when taken (it may carry a
// previous machine's dead uops) and every slab goes back to the pool at
// the end of Run, once no uop can ever be dereferenced again. An
// experiment sweep that runs hundreds of machines back to back therefore
// recirculates a working set of a few slabs instead of pushing the
// per-uop fetch rate through the garbage collector. Pointer-identity
// semantics within one machine are preserved exactly.
//
// On top of the slabs sits a free list fed by the squash paths that can
// prove a uop is unreferenced:
//
//   - uops dropped from the front-end queue before rename (dropFEQ).
//     Pre-rename uops are referenced only by the queue itself — they have
//     no waiters, no RAT entry, no ROB/ready/replay/event slot and no
//     store-buffer entry, all of which are established at rename or
//     later. The one exception is a diverge branch anchoring an episode
//     (episode.divergeU), which recycleFEQ therefore refuses; it stays on
//     its slab until the chunk dies.
//   - uops squashed by a pipeline flush, after recoverFrom has purged
//     every transient structure that might still name them (ready queue,
//     replay list, surviving producers' waiter lists, live episodes'
//     predicate waiter lists — see reclaimSquashed). A squashed uop whose
//     completion event is still in the heap is recycled lazily when
//     completeStage pops it.
type uopArena struct {
	chunks []*[uopChunkSize]uop // every slab taken from the pool
	next   int                  // next unhanded element of the last slab
	free   []*uop               // recycled uops, already zeroed
	// allocated counts every uop handed out (fresh or recycled), for the
	// throughput accounting in Stats.
	allocated uint64
	released  bool
}

// uopChunkSize is the slab granularity. 64 uops keep a chunk in the
// small-object allocation path (a whole-chunk clear stays cache-friendly)
// while still amortising the per-uop allocation; it also bounds how much
// memory a stray long-lived uop (e.g. a retired producer still named by
// a cold RAT entry) pins.
const uopChunkSize = 64

// chunkPool shares uop slabs across machines (experiments run many
// machines sequentially; parallel suites each draw their own slabs — the
// pool is concurrency-safe and a slab is owned by exactly one arena
// between Get and release).
var chunkPool = sync.Pool{New: func() any { return new([uopChunkSize]uop) }}

// machineStore is the growable side storage a machine builds up while
// it runs: the snapshot, checkpoint and waiter-list pools, the uop free
// list's array, the ROB and fetch-queue backing arrays, and the fetch
// oracle's undo log. A machine takes one from storePool when it is built
// and hands it back at Finish, so the next machine starts with grown
// storage instead of regrowing it from nil — a sampled run builds one
// short machine (about a thousand retired instructions) per interval.
type machineStore struct {
	snaps          []*fetchSnapshot
	ckpts          []*ratCheckpoint
	waiters        [][]waiter
	free           []*uop
	feqBuf, robBuf []*uop
	hist           emu.History
}

// storePool shares machineStores across machines, like chunkPool.
var storePool = sync.Pool{New: func() any { return new(machineStore) }}

// takeStore installs a pooled store's storage in a new machine.
func (m *Machine) takeStore() {
	st := storePool.Get().(*machineStore)
	m.store = st
	m.snapPool, m.ckptPool, m.waiterPool = st.snaps, st.ckpts, st.waiters
	m.arena.free = st.free
	m.feqBuf, m.robBuf = st.feqBuf, st.robBuf
}

// releaseStore hands the machine's storage back to storePool once no
// uop will be dereferenced again (Finish). In-flight uops' snapshots and
// checkpoints are salvaged first, as if they had retired; every uop
// pointer the pooled storage still holds (RAT checkpoint entries, the
// free list, the queue arrays) is cleared, so a pooled store pins none
// of the slabs chunkPool may drop.
func (m *Machine) releaseStore() {
	for _, u := range m.rob {
		m.salvageRetired(u)
	}
	for _, u := range m.feq {
		m.salvageRetired(u)
	}
	for _, c := range m.ckptPool {
		*c = ratCheckpoint{}
	}
	st := m.store
	st.snaps, st.ckpts, st.waiters = m.snapPool, m.ckptPool, m.waiterPool
	clear(m.arena.free)
	st.free = m.arena.free[:0]
	clear(m.feqBuf)
	clear(m.robBuf)
	st.feqBuf, st.robBuf = m.feqBuf, m.robBuf
	m.store, m.snapPool, m.ckptPool, m.waiterPool = nil, nil, nil, nil
	m.arena.free, m.feq, m.rob, m.feqBuf, m.robBuf = nil, nil, nil, nil, nil
	storePool.Put(st)
}

// alloc returns a zeroed uop.
func (a *uopArena) alloc() *uop {
	a.allocated++
	if n := len(a.free); n > 0 {
		u := a.free[n-1]
		a.free = a.free[:n-1]
		return u
	}
	if len(a.chunks) == 0 || a.next == uopChunkSize {
		c := chunkPool.Get().(*[uopChunkSize]uop)
		*c = [uopChunkSize]uop{} // may carry a previous machine's dead uops
		a.chunks = append(a.chunks, c)
		a.next = 0
	}
	u := &a.chunks[len(a.chunks)-1][a.next]
	a.next++
	return u
}

// release returns every slab to the shared pool. Only legal once no uop
// from this arena can ever be dereferenced again — i.e. at the very end
// of Run, after the last pipeline stage has executed. The machine's
// dangling internal references (ROB, RAT, checkpoints) are never read
// after Run returns; a Machine is single-use.
func (a *uopArena) release() {
	if a.released {
		return
	}
	a.released = true
	for i, c := range a.chunks {
		chunkPool.Put(c)
		a.chunks[i] = nil
	}
	a.chunks = nil
}

// recycle zeroes a provably unreferenced uop and puts it on the free
// list. The waiter list's backing array is kept (cleared, truncated) so a
// recycled producer does not regrow it from scratch.
func (a *uopArena) recycle(u *uop) {
	w := u.waiters
	for i := range w {
		w[i] = waiter{}
	}
	*u = uop{}
	u.waiters = w[:0]
	a.free = append(a.free, u)
}

// recycleFEQ returns a uop dropped from the front-end queue to the free
// list and reports whether it took it. The caller guarantees the uop
// never renamed; the arena re-checks the one pre-rename escape hatch (an
// episode's diverge branch) and the rename flag itself, declining rather
// than corrupting live state.
func (a *uopArena) recycleFEQ(u *uop) bool {
	if u.renamed || u.isDiverge {
		return false
	}
	a.recycle(u)
	return true
}

// dropFEQ recycles a uop dropped from the front-end queue, salvaging its
// fetch snapshot when the arena takes the uop (a pre-rename uop has no
// RAT checkpoint yet, and the snapshot is referenced by this uop alone).
func (m *Machine) dropFEQ(u *uop) {
	snap := u.fetchSnap
	if m.arena.recycleFEQ(u) && snap != nil {
		m.snapPool = append(m.snapPool, snap)
	}
}

// recycleSquashed returns a flush-squashed uop's storage to the arena,
// first salvaging its poolable side allocations (the per-branch RAT
// checkpoint and the fetch snapshot, both referenced by this uop alone).
func (m *Machine) recycleSquashed(u *uop) {
	if u.fetchSnap != nil {
		m.snapPool = append(m.snapPool, u.fetchSnap)
	}
	if u.checkpoint != nil {
		m.ckptPool = append(m.ckptPool, u.checkpoint)
	}
	m.arena.recycle(u)
}

// salvageRetired reclaims a retiring uop's side snapshots. Both are read
// only by misprediction recovery (recoverFrom), and only while the branch
// is in flight; a retired uop can never again be a recovery point, so its
// fetch snapshot and RAT checkpoint are dead the moment it leaves the
// ROB. The uop struct itself stays on its slab — RAT entries and saved
// checkpoints may still name it as a done producer — but returning the
// snapshots keeps snapFetch and snapshotRAT allocation-free in steady
// state, where they otherwise dominate the heap (one snapshot per control
// uop, one checkpoint per branch).
func (m *Machine) salvageRetired(u *uop) {
	if u.fetchSnap != nil {
		m.snapPool = append(m.snapPool, u.fetchSnap)
		u.fetchSnap = nil
	}
	if u.checkpoint != nil {
		m.ckptPool = append(m.ckptPool, u.checkpoint)
		u.checkpoint = nil
	}
}

// snapshotRAT copies r into a checkpoint, reusing storage salvaged from
// squashed branches when available.
func (m *Machine) snapshotRAT(r *rat) *ratCheckpoint {
	if n := len(m.ckptPool); n > 0 {
		c := m.ckptPool[n-1]
		m.ckptPool = m.ckptPool[:n-1]
		*c = *r
		return c
	}
	return r.snapshot()
}

// reclaimSquashed removes every remaining reference to the uops a flush
// just squashed, then recycles their storage. The purges are
// behavior-neutral: issue, completion broadcast and predicate wake-up all
// skip squashed entries already, so dropping them (order-preserving)
// changes no simulation outcome — it only makes the "unreferenced" proof
// the free list relies on.
func (m *Machine) reclaimSquashed(dead []*uop) {
	if len(dead) == 0 {
		return
	}
	m.readyQ = dropSquashed(m.readyQ)
	m.replayLoads = dropSquashed(m.replayLoads)
	// Surviving producers may hold waiter entries for squashed consumers
	// (consumers are always younger than their producers, so the reverse
	// cannot happen: a squashed producer's waiters are all squashed too).
	for _, u := range m.rob {
		if len(u.waiters) == 0 {
			continue
		}
		kept := u.waiters[:0]
		for _, w := range u.waiters {
			if !w.u.squashed {
				kept = append(kept, w)
			}
		}
		for i := len(kept); i < len(u.waiters); i++ {
			u.waiters[i] = waiter{}
		}
		u.waiters = kept
	}
	// Surviving episodes' predicates may hold squashed select-uops (a
	// flush can rewind into an episode past its selects). Dead episodes'
	// predicates can never broadcast again, so their waiter lists are
	// never read and need no purge.
	for _, ep := range m.episodes {
		m.preds.dropSquashedWaiters(ep.predID1)
		m.preds.dropSquashedWaiters(ep.predID2)
	}
	for _, u := range dead {
		if u.issued && !u.done {
			// Completion event still in the heap; completeStage recycles
			// this uop when the event pops.
			continue
		}
		m.recycleSquashed(u)
	}
}

// dropSquashed filters squashed uops out of a queue in place, preserving
// the order of the survivors.
func dropSquashed(q []*uop) []*uop {
	kept := q[:0]
	for _, u := range q {
		if !u.squashed {
			kept = append(kept, u)
		}
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	return kept
}
