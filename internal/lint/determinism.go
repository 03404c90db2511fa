// The determinism analyzer. Simulation results must be bit-identical
// for identical Options: the server's result cache keys on a canonical
// hash of the request, the Perfetto trace tests hash exported bytes,
// and fgnvm-sweep -parallel merges per-worker results assuming order
// independence. Three classes of nondeterminism have historically
// leaked into simulators of this kind and are banned here outright.

package lint

import (
	"go/ast"
	"go/types"
)

// Determinism forbids, in kernel/model/CLI code:
//
//   - time.Now: simulated time is sim.Tick; wall-clock reads make
//     output depend on the host.
//   - the global math/rand (and math/rand/v2) generator: workload
//     randomness must come from a seeded *rand.Rand owned by the
//     component, or results change run to run.
//   - range over a map: Go randomizes map iteration order, so any map
//     walk whose effects feed scheduling or output must collect the
//     keys into a slice and sort it first. A range whose body only
//     appends to a slice (optionally inside a plain if) is recognized
//     as the collection half of that sorted-keys idiom and allowed;
//     anything else needs the sort or an explicit
//     "//lint:allow rangemap <reason>" waiver.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, and unordered map " +
		"iteration in simulation and CLI code",
	Scope: determinismScope,
	Run:   runDeterminism,
}

// determinismScope is every package of the module but two. Simulation
// packages feed scheduling and Result bytes; the CLIs and examples
// print results whose byte-identity the tests rely on; the serving
// stack (server, store, shard) promises byte-identical sharded sweeps
// and content-addressed bytes. Wall-clock reads anywhere in them must
// be explicit, audited waivers. Out of scope are the benchmark
// harness (bench), which measures the host, and this linter.
func determinismScope(pkgPath string) bool {
	return !pathHasSuffix(pkgPath, "bench") && !pathHasSuffix(pkgPath, "internal/lint")
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkForbiddenCall flags time.Now and package-level math/rand
// functions. Constructors that build a private, seedable generator
// (rand.New, rand.NewSource, ...) are fine — it is the implicit global
// generator that breaks reproducibility.
func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if sel.Sel.Name == "Now" {
			if pass.Allowed(call, "wallclock") {
				return // audited wall-clock read (e.g. the perf harness timing real runs)
			}
			pass.Reportf(call.Pos(),
				"call to time.Now: simulation code must derive time from sim.Tick, not the wall clock "+
					"(or waive with //lint:allow wallclock <reason> when measuring real elapsed time is the point)")
		}
	case "math/rand", "math/rand/v2":
		switch sel.Sel.Name {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			return // building a private seeded generator is the fix, not the bug
		}
		pass.Reportf(call.Pos(),
			"call to the global %s.%s generator: use a seeded *rand.Rand owned by the component",
			pkgName.Name(), sel.Sel.Name)
	}
}

// checkMapRange flags range statements over map-typed expressions
// unless the body is the key/value-collection half of the sorted-keys
// idiom or the statement carries a rangemap waiver.
func checkMapRange(pass *Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isCollectLoop(rs.Body) {
		return
	}
	if pass.Allowed(rs, "rangemap") {
		return
	}
	pass.Reportf(rs.Pos(),
		"range over map has nondeterministic order: collect the keys into a slice and sort "+
			"(or waive with //lint:allow rangemap <reason> if provably order-independent)")
}

// isCollectLoop reports whether every statement in the loop body is an
// append-to-slice assignment, optionally wrapped in a single if without
// else — the shape of "collect keys, then sort" loops like
//
//	for k := range m { keys = append(keys, k) }
//	for k := range m { if !seen[k] { keys = append(keys, k) } }
func isCollectLoop(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, st := range body.List {
		if !isCollectStmt(st) {
			return false
		}
	}
	return true
}

func isCollectStmt(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		call, ok := unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := unparen(call.Fun).(*ast.Ident)
		return ok && fn.Name == "append"
	case *ast.IfStmt:
		if st.Else != nil || st.Init != nil {
			return false
		}
		return isCollectLoop(st.Body)
	default:
		return false
	}
}
