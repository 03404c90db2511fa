// The stats-discipline analyzer. Every component aggregates its
// observable behaviour in a Stats struct of internal/stats counters,
// and reporting layers read them through Value()/Mean() accessors. If
// another package also wrote those counters, totals would double-count
// and the conservation invariants (e.g. attributed stalls ==
// QueuedWaitCycles) could no longer be audited locally. Mutation is
// therefore reserved to the package that declares the counter's
// containing struct.

package lint

import (
	"go/ast"
	"go/types"
)

// StatsDiscipline flags calls to the mutating methods of the
// internal/stats primitives (Counter.Inc/Add, Distribution.Observe,
// Histogram.Observe) when the counter reached is a field of a struct
// type declared in a different package than the one making the call.
// Locally declared bare counters (a stats.Counter variable or a field
// of one of the package's own types) stay writable — the primitives
// are general-purpose.
var StatsDiscipline = &Analyzer{
	Name: "statsdiscipline",
	Doc:  "statistics counters are written only by their owning package",
	Run:  runStatsDiscipline,
}

// statsMutators maps each internal/stats type to its mutating methods.
var statsMutators = map[string]map[string]bool{
	"Counter":      {"Inc": true, "Add": true},
	"Distribution": {"Observe": true},
	"Histogram":    {"Observe": true},
}

func runStatsDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.Info.Selections[sel]
			if !ok || selection.Kind() != types.MethodVal {
				return true
			}
			recvType, name := selection.Recv(), ""
			for tname, methods := range statsMutators {
				if isNamed(recvType, "internal/stats", tname) && methods[sel.Sel.Name] {
					name = tname
					break
				}
			}
			if name == "" {
				return true
			}
			owner := counterOwner(pass, sel.X)
			if owner != nil && owner != pass.Pkg {
				pass.Reportf(call.Pos(),
					"write to stats.%s owned by package %s: counters are mutated only by their owning package",
					name, owner.Path())
			}
			return true
		})
	}
	return nil
}

// counterOwner resolves which package owns the counter expression e:
// the declaring package of the struct field the counter is reached
// through, or the declaring package of the base variable. A nil result
// means ownership could not be determined (no finding).
func counterOwner(pass *Pass, e ast.Expr) *types.Package {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			if selection, ok := pass.Info.Selections[x]; ok && selection.Kind() == types.FieldVal {
				return selection.Obj().Pkg()
			}
			// Package-qualified variable (pkg.Var): owner is that package.
			if v, ok := pass.Info.Uses[x.Sel].(*types.Var); ok {
				return v.Pkg()
			}
			return nil
		case *ast.Ident:
			if v, ok := pass.Info.Uses[x].(*types.Var); ok {
				return v.Pkg()
			}
			return nil
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			// Accessor call (ctrl.Stats().Reads ...): the counter lives
			// behind whatever type the call returns; its fields resolve
			// via the selection on the enclosing selector, so recursing
			// is unnecessary — ownership was already decided there.
			return nil
		default:
			return nil
		}
	}
}
