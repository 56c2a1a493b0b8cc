package gen

import "dmp/internal/prog"

// Failure decides whether a program still exhibits the behavior being
// minimized (a lint diagnostic, an emu/core divergence, a crash...).
// It must be deterministic; Shrink calls it many times.
type Failure func(*prog.Program) bool

// Shrink greedily minimizes g while fails keeps holding: it halves the
// driver-loop trip count, deletes subtrees, hoists structure bodies into
// their parents, degrades composite nodes to single statements, and
// trims statement runs — accepting a mutation only if the re-emitted
// program still fails. Every emitted intermediate goes through the same
// emitter as the original, so shrinking preserves lint-cleanliness by
// construction.
//
// Shrink is deterministic (the mutation order is a pure function of the
// tree) and converges: each accepted mutation strictly reduces the tree
// measure, and it stops when no single mutation reproduces the failure.
// It returns the minimized Generated and the number of accepted
// mutations. If the input does not fail, it is returned unchanged.
func Shrink(g *Generated, fails Failure) (*Generated, int) {
	opts := g.Opts
	if !failsOn(fails, g.Root, g.Fns, opts) {
		return g, 0
	}
	cur := g.Root.clone()
	steps := 0

	// Dynamic length first: halving the driver trips is the cheapest
	// large reduction and makes every later predicate call faster.
	for opts.Iters > 1 {
		half := opts
		half.Iters = opts.Iters / 2
		if !failsOn(fails, cur, g.Fns, half) {
			break
		}
		opts = half
		steps++
	}

	for {
		improved := false
		for _, m := range mutations(cur) {
			next := cur.clone()
			if !m.apply(next) {
				continue
			}
			if measure(next) >= measure(cur) {
				continue
			}
			if failsOn(fails, next, g.Fns, opts) {
				cur = next
				steps++
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}

	out := &Generated{Opts: opts, Root: cur, Fns: g.Fns}
	out.Prog = Emit(cur, g.Fns, opts)
	return out, steps
}

// failsOn re-emits and runs the predicate, absorbing emitter panics from
// degenerate mutation products (those mutations are simply rejected).
func failsOn(fails Failure, root *Node, fns []*Fn, o Options) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return fails(Emit(root, fns, o))
}

// measure is the strictly decreasing shrink metric: one unit per node
// plus its statement/trip count.
func measure(n *Node) int {
	total := 1
	if n.N > 0 {
		total += n.N
	}
	for _, k := range n.Kids {
		total += measure(k)
	}
	return total
}

// mutation is one candidate tree edit, addressed by child-index path.
type mutation struct {
	path []int
	op   mutOp
}

type mutOp uint8

const (
	opDelete   mutOp = iota // remove the node from its parent
	opHoist0                // replace the node with Kids[0]
	opHoist1                // replace the node with Kids[1]
	opDropElse              // turn if-else into plain if
	opHalveN                // halve the statement/trip count
)

// mutations enumerates candidate edits in deterministic tree order,
// coarsest first (whole-subtree deletions before count trims) so the
// greedy pass removes the most per predicate call.
func mutations(root *Node) []mutation {
	var coarse, fine []mutation
	var walk func(n *Node, path []int)
	walk = func(n *Node, path []int) {
		if len(path) > 0 { // never delete the root
			coarse = append(coarse, mutation{clonePath(path), opDelete})
		}
		if len(n.Kids) > 0 && n.Kind != KSeq {
			fine = append(fine, mutation{clonePath(path), opHoist0})
			if len(n.Kids) > 1 {
				fine = append(fine, mutation{clonePath(path), opHoist1})
			}
		}
		if n.Kind == KHammock && n.Else {
			fine = append(fine, mutation{clonePath(path), opDropElse})
		}
		if n.N > 1 {
			fine = append(fine, mutation{clonePath(path), opHalveN})
		}
		for i, k := range n.Kids {
			walk(k, append(path, i))
		}
	}
	walk(root, nil)
	return append(coarse, fine...)
}

func clonePath(p []int) []int {
	c := make([]int, len(p))
	copy(c, p)
	return c
}

// apply performs the edit on a fresh clone; it reports false when the
// path or operation no longer applies.
func (m mutation) apply(root *Node) bool {
	if len(m.path) == 0 {
		return m.applyTo(nil, root, -1)
	}
	parent := root
	for _, i := range m.path[:len(m.path)-1] {
		if i >= len(parent.Kids) {
			return false
		}
		parent = parent.Kids[i]
	}
	i := m.path[len(m.path)-1]
	if i >= len(parent.Kids) {
		return false
	}
	return m.applyTo(parent, parent.Kids[i], i)
}

func (m mutation) applyTo(parent, n *Node, idx int) bool {
	switch m.op {
	case opDelete:
		if parent == nil {
			return false
		}
		parent.Kids = append(parent.Kids[:idx], parent.Kids[idx+1:]...)
		return true
	case opHoist0, opHoist1:
		k := 0
		if m.op == opHoist1 {
			k = 1
		}
		if k >= len(n.Kids) {
			return false
		}
		if parent == nil {
			return false
		}
		parent.Kids[idx] = n.Kids[k]
		return true
	case opDropElse:
		if n.Kind != KHammock || !n.Else {
			return false
		}
		n.Else = false
		n.Kids = n.Kids[:1]
		return true
	case opHalveN:
		if n.N <= 1 {
			return false
		}
		n.N /= 2
		return true
	}
	return false
}
