// Command fgnvm-lint runs the repository's custom static-analysis
// suite (internal/lint) over the given package patterns:
//
//	fgnvm-lint ./...                 # whole tree (CI invocation)
//	fgnvm-lint -run determinism ./internal/sim
//	fgnvm-lint -sarif ./... > lint.sarif
//	fgnvm-lint -list                 # describe the analyzers
//
// Each analyzer encodes a repo-specific correctness rule — bit-exact
// determinism, telemetry hook purity, cycle/nanosecond unit hygiene
// and statistics ownership. Findings print as file:line:col
// diagnostics, or as a SARIF 2.1.0 log with -sarif so CI can upload
// them as code-scanning annotations; the exit status is 1 if anything
// was flagged, 2 on usage or load errors. Test files are not analyzed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		runNames = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list     = flag.Bool("list", false, "list the analyzers and exit")
		sarif    = flag.Bool("sarif", false, "write findings to stdout as SARIF 2.1.0 instead of plain diagnostics")
	)
	flag.Parse()

	all := lint.All()
	if *list {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all
	if *runNames != "" {
		analyzers = nil
		for _, name := range strings.Split(*runNames, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, a := range all {
				if a.Name == name {
					analyzers = append(analyzers, a)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "fgnvm-lint: unknown analyzer %q (see -list)\n", name)
				return 2
			}
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgnvm-lint:", err)
		return 2
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgnvm-lint:", err)
		return 2
	}

	if *sarif {
		if err := writeSARIF(os.Stdout, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, "fgnvm-lint:", err)
			return 2
		}
		if len(diags) > 0 {
			return 1
		}
		return 0
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fgnvm-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// SARIF 2.1.0 structures, pared down to what GitHub code scanning
// reads. Structs (not maps) keep the key order and the output bytes
// deterministic for a given finding list.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// writeSARIF serializes the findings as one SARIF run. Every analyzer
// that ran is declared as a rule, so a clean log still names the checks
// that were applied.
func writeSARIF(w *os.File, analyzers []*lint.Analyzer, diags []lint.Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relPath(d.Pos.Filename)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "fgnvm-lint", Rules: rules}}, Results: results}},
	})
}

// relPath makes a diagnostic path repository-relative when possible:
// SARIF artifact URIs must not be absolute for code-scanning upload.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	rel, err := filepath.Rel(wd, p)
	if err != nil || strings.HasPrefix(rel, "..") {
		return p
	}
	return filepath.ToSlash(rel)
}
