// The hook-purity analyzer. Telemetry is documented as strictly
// observational: a Sink implementation or a kernel Hook that mutates
// simulator state would make results depend on whether telemetry is
// attached — silently invalidating every "telemetry-off equals
// telemetry-on" comparison and the zero-overhead guarantee.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HookPurity inspects telemetry.Sink implementations (their
// Command/Request methods, and the Stall method of a Sink that also
// consumes stalls, as telemetry.Attribution does), methods whose
// signature matches sim.Hook, and function literals passed to
// (*sim.Engine).SetHook, and flags:
//
//   - assignments or ++/-- through package-level variables, or through
//     any base object other than the method receiver and its locals;
//   - calls to state-mutating methods of the simulator packages
//     (engine scheduling, bank commands, controller admission, queue
//     and request mutation).
//
// Writes to the hook's own receiver state (counters, buffers) are the
// whole point of a sink and remain allowed.
var HookPurity = &Analyzer{
	Name: "hookpurity",
	Doc:  "telemetry sinks and kernel hooks must not mutate simulator state",
	Run:  runHookPurity,
}

// mutatingMethods lists simulator methods that change model state, by
// the import-path suffix of the receiver's package. Calling any of
// them from a hook body is a purity violation regardless of how the
// receiver was reached.
var mutatingMethods = map[string][]string{
	"internal/sim":        {"ScheduleArg", "Step", "Run", "RunUntil", "Advance", "SetHook"},
	"internal/core":       {"Activate", "Read", "Write"},
	"internal/controller": {"Enqueue", "Cycle", "SkipCycles", "SkipRejects"},
	"internal/dram":       {"Enqueue", "Cycle"},
	// Charging energy or stepping a core (or touching its LLC) changes
	// the Result a hook is only meant to observe.
	"internal/energy": {"Sense", "Write", "AdvanceBackground"},
	"internal/cpu":    {"Cycle", "SkipStallCycles", "Access"},
	// Pool.Get/Put and Request.Reset recycle request identity: a hook
	// that touches the free list can alias a live request with a future
	// one, which is as stateful as mutation gets.
	"internal/mem": {"Push", "Remove", "MarkIssued", "Finish", "Reset", "Get", "Put"},
}

func runHookPurity(pass *Pass) error {
	sink := lookupSinkInterface(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if isSinkMethod(pass, fd, sink) || isHookSignature(pass, fd) {
				checkHookBody(pass, fd.Name.Name, fd.Body)
			}
		}
		// Function literals installed as kernel hooks.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "SetHook" || len(call.Args) != 1 {
				return true
			}
			if recv := pass.TypeOf(sel.X); recv == nil || !isNamed(recv, "internal/sim", "Engine") {
				return true
			}
			if lit, ok := unparen(call.Args[0]).(*ast.FuncLit); ok {
				checkHookBody(pass, "sim.Hook literal", lit.Body)
			}
			return true
		})
	}
	return nil
}

// lookupSinkInterface finds the telemetry.Sink interface type, whether
// the analyzed package is telemetry itself or merely imports it.
func lookupSinkInterface(pass *Pass) *types.Interface {
	scopes := []*types.Scope{}
	if pathHasSuffix(pass.Pkg.Path(), "internal/telemetry") {
		scopes = append(scopes, pass.Pkg.Scope())
	}
	for _, imp := range pass.Pkg.Imports() {
		if pathHasSuffix(imp.Path(), "internal/telemetry") {
			scopes = append(scopes, imp.Scope())
		}
	}
	for _, sc := range scopes {
		if obj, ok := sc.Lookup("Sink").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
	}
	return nil
}

// isSinkMethod reports whether fd is the Command/Request/Stall method
// of a type implementing telemetry.Sink.
func isSinkMethod(pass *Pass, fd *ast.FuncDecl, sink *types.Interface) bool {
	if sink == nil {
		return false
	}
	switch fd.Name.Name {
	case "Command", "Request", "Stall":
	default:
		return false
	}
	obj := pass.Info.Defs[fd.Name]
	if obj == nil {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	return types.Implements(recv, sink) ||
		types.Implements(types.NewPointer(recv), sink)
}

// isHookSignature reports whether fd's signature matches sim.Hook:
// func(now sim.Tick, pending int). Methods with this shape (such as
// trace engine samplers) are installed via Engine.SetHook as method
// values, so they get the same scrutiny as Sink methods.
func isHookSignature(pass *Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Results().Len() != 0 || sig.Params().Len() != 2 {
		return false
	}
	if !isNamed(sig.Params().At(0).Type(), "internal/sim", "Tick") {
		return false
	}
	basic, ok := sig.Params().At(1).Type().(*types.Basic)
	return ok && basic.Kind() == types.Int
}

// checkHookBody walks one hook body flagging impure statements.
func checkHookBody(pass *Pass, name string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkHookWrite(pass, name, lhs)
			}
		case *ast.IncDecStmt:
			checkHookWrite(pass, name, n.X)
		case *ast.CallExpr:
			checkHookCall(pass, name, n)
		}
		return true
	})
}

// checkHookWrite flags assignment targets whose base object is a
// package-level variable. Writes rooted at locals, parameters or the
// receiver are the sink's own state and are allowed.
func checkHookWrite(pass *Pass, name string, lhs ast.Expr) {
	base := baseIdent(lhs)
	if base == nil {
		return
	}
	v, ok := pass.Info.Uses[base].(*types.Var)
	if !ok {
		return
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		// Package-scope variable: its parent scope is the package
		// scope, whose parent is the universe.
		pass.Reportf(lhs.Pos(),
			"%s writes package-level state %q: telemetry hooks must be observational", name, v.Name())
	}
}

// checkHookCall flags calls to known state-mutating simulator methods.
func checkHookCall(pass *Pass, name string, call *ast.CallExpr) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	fn := selection.Obj().(*types.Func)
	if fn.Pkg() == nil {
		return
	}
	for suffix, methods := range mutatingMethods {
		if !pathHasSuffix(fn.Pkg().Path(), suffix) {
			continue
		}
		for _, m := range methods {
			if fn.Name() == m {
				pass.Reportf(call.Pos(),
					"%s calls state-mutating %s.%s: telemetry hooks must be observational",
					name, fn.Pkg().Name(), fn.Name())
				return
			}
		}
		return
	}
}

// baseIdent walks selector/index/star chains to the base identifier of
// an assignable expression, or nil if the base is not an identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
