package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func kindWord(t types.Type) string {
	if _, ok := t.(*types.Map); ok {
		return "map"
	}
	return "slice"
}

// HotAlloc guards the per-cycle pipeline loop of internal/core (and the
// internal/telemetry probe sinks that ride it) against the costs PR 1
// removed:
//
//   - any sort.Slice/SliceStable/Sort/Stable call in the package — the
//     scheduler is sort-free by design (age order falls out of the
//     ready-queue discipline);
//   - heap allocation inside functions whose doc comment carries a
//     `//dmp:hotpath` directive: make, new, composite literals and
//     closures all allocate (or force escapes) on every cycle;
//   - probe hook emission (a call to a probe* method) in a hot-path
//     function outside an `if <recv>.probe != nil` guard: the
//     observability contract is that a detached probe costs one pointer
//     compare per hook site, which only holds if every site is guarded;
//   - telemetry emission in a hot-path function that is neither one of
//     the lock-free metric methods (Inc/Add/Set/Observe/Value — always
//     allocation-free, safe at any rate) nor inside an `if x != nil`
//     guard: spans and feed events allocate and take locks, so hot
//     loops may only reach them behind a nil check that is false when
//     telemetry is detached. Calls inside internal/telemetry itself are
//     the sinks' own code, which the allocation rules above cover.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag sorting, per-cycle allocation, and unguarded probe/telemetry emission in the pipeline loop",
	Packages: []string{"dmp/internal/core", "dmp/internal/merge", "dmp/internal/cow",
		"dmp/internal/sample", "dmp/internal/telemetry", "dmp/internal/sched", "dmp/internal/store"},
	Run: runHotAlloc,
}

// telemetryHotSafe lists the telemetry calls allowed unguarded in
// hot-path functions: the atomic metric operations, which are
// lock-free and allocation-free by construction (pinned by
// TestMetricsAllocationFree). Everything else — spans, feed events,
// snapshots — must hide behind a nil guard.
var telemetryHotSafe = map[string]bool{
	"Inc": true, "Add": true, "Set": true, "Observe": true, "Value": true,
}

func runHotAlloc(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
				return true
			}
			switch fn.Name() {
			case "Slice", "SliceStable", "Sort", "Stable":
				pass.Reportf(call.Pos(),
					"sort.%s in internal/core: the pipeline is sort-free by design; use the scheduling-queue discipline", fn.Name())
			}
			return true
		})
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd.Doc) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
}

// isHotPath reports whether a function's doc comment carries the
// //dmp:hotpath directive.
func isHotPath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//dmp:hotpath") {
			return true
		}
	}
	return false
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	reported := map[*ast.CompositeLit]bool{}
	guarded := probeGuardedRanges(fd.Body)
	nilGuarded := nilGuardedRanges(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			// &T{...}: the literal escapes to the heap.
			if lit, ok := x.X.(*ast.CompositeLit); ok && x.Op == token.AND {
				pass.Reportf(x.Pos(),
					"address-taken composite literal in hot-path function %s allocates per cycle", name)
				reported[lit] = true
			}
		case *ast.CompositeLit:
			// A plain value-struct literal stays on the stack; only
			// slice and map literals inherently allocate.
			if reported[x] {
				return true
			}
			if t := pass.Info.Types[x].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(x.Pos(),
						"%s composite literal in hot-path function %s allocates per cycle",
						kindWord(t.Underlying()), name)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(),
				"closure in hot-path function %s allocates per cycle", name)
			return false // its body is not per-cycle straight-line code
		case *ast.CallExpr:
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && (id.Name == "make" || id.Name == "new") {
				if _, isBuiltin := identObj(pass.Info, id).(*types.Builtin); isBuiltin {
					pass.Reportf(x.Pos(),
						"%s in hot-path function %s allocates per cycle", id.Name, name)
				}
			}
			if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok &&
				strings.HasPrefix(sel.Sel.Name, "probe") && !inRanges(guarded, x.Pos()) {
				pass.Reportf(x.Pos(),
					"unguarded %s call in hot-path function %s: wrap the hook in `if <recv>.probe != nil` so the detached probe stays branch-only",
					sel.Sel.Name, name)
			}
			if fn := calleeFunc(pass.Info, x); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "dmp/internal/telemetry" && fn.Pkg() != pass.Pkg &&
				!telemetryHotSafe[fn.Name()] && !inRanges(nilGuarded, x.Pos()) {
				pass.Reportf(x.Pos(),
					"unguarded telemetry.%s call in hot-path function %s: only the atomic metric ops (Inc/Add/Set/Observe/Value) may run unguarded; wrap emission in an `if x != nil` guard",
					fn.Name(), name)
			}
		}
		return true
	})
}

// span is a half-open source range.
type span struct{ lo, hi token.Pos }

func inRanges(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if s.lo <= pos && pos < s.hi {
			return true
		}
	}
	return false
}

// probeGuardedRanges collects the bodies of if statements whose
// condition (or any conjunct of it) compares a `.probe` selector against
// nil — the ranges inside which probe hook emission is allowed.
func probeGuardedRanges(body *ast.BlockStmt) []span {
	var spans []span
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if ok && condChecksProbe(ifs.Cond) {
			spans = append(spans, span{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return spans
}

// nilGuardedRanges collects the bodies of if statements whose
// condition (or any conjunct of it) compares anything against nil with
// != — the ranges inside which guarded telemetry emission is allowed.
// It is deliberately looser than probeGuardedRanges: any nil check
// counts, because the emission site names the guarded pointer itself
// (`if pl.tr != nil { pl.tr.SpanAt(...) }`).
func nilGuardedRanges(body *ast.BlockStmt) []span {
	var spans []span
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if ok && condChecksNil(ifs.Cond) {
			spans = append(spans, span{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return spans
}

// condChecksNil reports whether the expression contains any `x != nil`
// comparison.
func condChecksNil(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.NEQ {
			return true
		}
		for _, side := range []ast.Expr{b.X, b.Y} {
			if id, ok := unparen(side).(*ast.Ident); ok && id.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}

// condChecksProbe reports whether the expression contains a
// `<x>.probe != nil` comparison anywhere (so `m.probe != nil && more`
// qualifies).
func condChecksProbe(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || b.Op != token.NEQ {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
			sel, ok := unparen(pair[0]).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "probe" {
				continue
			}
			if id, ok := unparen(pair[1]).(*ast.Ident); ok && id.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}
