package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches `// want "substring"` expectation comments in fixture
// files; multiple quoted substrings on one comment are all expected.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	substr
}

type substr = string

// runFixture loads testdata/src/<name>, runs the analyzer with Scope
// bypassed, and checks the findings against the `// want` comments:
// every want must be matched by a diagnostic on its line, and every
// diagnostic must be covered by a want.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkgs, err := Load("", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	pkg := pkgs[0]

	var wants []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, after, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(after, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					wants = append(wants, expectation{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}

	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		report:   func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, name, err)
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if !matched[i] && d.Pos.Filename == w.file && d.Pos.Line == w.line &&
				strings.Contains(d.Message, w.substr) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected a %s diagnostic containing %q, got none",
				w.file, w.line, a.Name, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestDeterminismFixture(t *testing.T)     { runFixture(t, Determinism, "determinism") }
func TestHookPurityFixture(t *testing.T)      { runFixture(t, HookPurity, "hookpurity") }
func TestUnitSafetyFixture(t *testing.T)      { runFixture(t, UnitSafety, "unitsafety") }
func TestStatsDisciplineFixture(t *testing.T) { runFixture(t, StatsDiscipline, "statsdiscipline") }

// TestTreeIsClean is the in-repo enforcement of the lint gate: the
// full suite, with scoping as cmd/fgnvm-lint applies it, must find
// nothing in the shipped tree.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := Load("", "repro/...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestScopes pins the package sets each analyzer applies to.
func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		pkg      string
		want     bool
	}{
		{Determinism, "repro/internal/sim", true},
		{Determinism, "repro/internal/controller", true},
		{Determinism, "repro/cmd/fgnvm-sim", true},
		{Determinism, "repro/internal/server", true}, // byte-identical serving: wall-clock reads need waivers
		{Determinism, "repro/internal/store", true},  // content-addressed bytes must not depend on the host
		{Determinism, "repro/internal/shard", true},
		{Determinism, "repro/internal/lint", false},
		{Determinism, "repro", true}, // the root package assembles Result bytes
		{Determinism, "repro/bench", false},
		{Determinism, "repro/internal/cpu", true},
		{Determinism, "repro/internal/dram", true},
		{Determinism, "repro/internal/energy", true},
		{Determinism, "repro/internal/addr", true},
		{Determinism, "repro/internal/stats", true},
		{Determinism, "repro/internal/timing", true},
		{Determinism, "repro/internal/memo", true},        // the server's cache and the warm-up memo
		{Determinism, "repro/internal/reliability", true}, // seeded Monte Carlo: same seed, same counts
		{Determinism, "repro/examples/quickstart", true},
		{Determinism, "repro/cmd/fgnvm-bench", true}, // a CLI, not the bench harness
		{UnitSafety, "repro/internal/timing", false}, // owns the crossings
		{UnitSafety, "repro/internal/sim", false},    // owns the Tick type
		{UnitSafety, "repro/cmd/fgnvm-sim", true},
		{HookPurity, "repro/internal/telemetry", true},
		{StatsDiscipline, "repro/internal/controller", true},
	}
	for _, c := range cases {
		got := c.analyzer.Scope == nil || c.analyzer.Scope(c.pkg)
		if got != c.want {
			t.Errorf("%s.Scope(%q) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
}

// TestAllowWaiver checks the waiver plumbing end to end on a synthetic
// pass (the fixtures also exercise it, but this pins the exact comment
// grammar).
func TestAllowWaiver(t *testing.T) {
	pkgs, err := Load("", "./testdata/src/determinism")
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{
		Analyzer: Determinism,
		Fset:     pkgs[0].Fset,
		Files:    pkgs[0].Files,
		Pkg:      pkgs[0].Types,
		Info:     pkgs[0].Info,
	}
	// The waived loop in the fixture is the one accumulating with +=
	// (waivedSum); it must carry the rangemap waiver and only that one.
	found := false
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok || len(rs.Body.List) != 1 {
				return true
			}
			as, ok := rs.Body.List[0].(*ast.AssignStmt)
			if !ok || as.Tok != token.ADD_ASSIGN {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok || id.Name != "total" {
				return true
			}
			found = true
			pos := pass.Fset.Position(rs.Pos())
			if !pass.Allowed(rs, "rangemap") {
				t.Errorf("%s:%d: waived range not recognized", pos.Filename, pos.Line)
			}
			if pass.Allowed(rs, "someotherrule") {
				t.Errorf("%s:%d: waiver leaked across rules", pos.Filename, pos.Line)
			}
			return true
		})
	}
	if !found {
		t.Fatal("waived range loop not found in fixture")
	}
}
