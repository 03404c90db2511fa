// Package lint is the repository's custom static-analysis suite: a
// small go/analysis-style framework (self-contained because the build
// environment vendors no golang.org/x/tools) plus the repo-specific
// analyzers that mechanically enforce the properties the reproduction
// rests on:
//
//   - determinism: simulation results must be bit-identical across
//     runs, so scheduling- or output-feeding code must not consult
//     wall-clock time, the global math/rand generator, or unordered
//     map iteration (see Determinism);
//   - hookpurity: telemetry sinks and kernel hooks are strictly
//     observational and must not write simulator state (HookPurity);
//   - unitsafety: cycle-domain (sim.Tick) and nanosecond-domain
//     quantities convert only through internal/timing (UnitSafety);
//   - statsdiscipline: statistics counters are written only by the
//     package that owns them (StatsDiscipline).
//
// The cmd/fgnvm-lint multichecker drives every analyzer over the tree;
// each analyzer also ships with flagged/allowed fixture packages under
// testdata/src, exercised by RunFixture-based tests.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check, mirroring the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real framework if the dependency ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of the rule.
	Doc string
	// Scope reports whether the analyzer applies to a package import
	// path. A nil Scope applies everywhere. The driver consults Scope;
	// fixture tests bypass it and run the analyzer directly.
	Scope func(pkgPath string) bool
	// Run analyzes one package, reporting findings through the Pass.
	Run func(*Pass) error
}

// Pass carries one package's syntax and type information through an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	report   func(Diagnostic)

	// allowLines[filename][line] holds the rule names waived by a
	// "//lint:allow <rule> <reason>" comment on that line.
	allowLines map[string]map[int][]string
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Allowed reports whether node n carries (on its own line or the line
// above) a "//lint:allow <rule> <reason>" waiver for the given rule.
// Waivers document deliberately order-independent or otherwise audited
// exceptions; the reason is mandatory by convention, not enforced.
func (p *Pass) Allowed(n ast.Node, rule string) bool {
	if p.allowLines == nil {
		p.buildAllowLines()
	}
	pos := p.Fset.Position(n.Pos())
	lines := p.allowLines[pos.Filename]
	for _, l := range []int{pos.Line, pos.Line - 1} {
		for _, r := range lines[l] {
			if r == rule {
				return true
			}
		}
	}
	return false
}

func (p *Pass) buildAllowLines() {
	p.allowLines = make(map[string]map[int][]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow ")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				m := p.allowLines[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					p.allowLines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], fields[0])
			}
		}
	}
}

// All returns every analyzer of the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, HookPurity, UnitSafety, StatsDiscipline}
}

// Run applies each applicable analyzer to each package and returns the
// combined findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Scope != nil && !a.Scope(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// pathHasSuffix reports whether an import path is pkg or ends in /pkg.
func pathHasSuffix(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// isNamed reports whether t (after pointer unwrapping) is the named
// type name declared in a package whose import path ends in pkgSuffix.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
