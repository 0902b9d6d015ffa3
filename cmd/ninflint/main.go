// Ninflint checks the repository against the data-plane invariants the
// Ninf port depends on: pooled frame buffers released on every path, no
// network I/O under mutexes, context propagation into dials,
// feature-level gating, error-chain classification, and hotpath
// allocation discipline. Run it standalone:
//
//	go run ./cmd/ninflint ./...
//	go run ./cmd/ninflint -passes releasecheck,hotalloc ./internal/protocol
//	go run ./cmd/ninflint -fix ./...          # apply mechanical fixes
//	go run ./cmd/ninflint -sarif out.sarif ./...
//	go run ./cmd/ninflint -audit ./...        # flag stale suppressions
//
// or through the vet driver:
//
//	go vet -vettool=$(which ninflint) ./...
//
// It exits 1 when any finding survives //lint:ninflint suppression.
//
// Standalone mode analyzes the whole package graph in one run with a
// shared fact store, so interprocedural summaries (ownership roles,
// gate requirements, seq-map effects) propagate across packages. The
// vet unitchecker mode analyzes one package at a time with no facts —
// annotations still apply within the package, summaries do not.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ninf/internal/analysis"
	"ninf/internal/analysis/load"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ninflint", flag.ExitOnError)
	passes := fs.String("passes", "", "comma-separated pass names to run (default: all)")
	fix := fs.Bool("fix", false, "apply the mechanical fixes attached to diagnostics")
	sarif := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file (- for stdout)")
	audit := fs.Bool("audit", false, "report stale //lint:ninflint suppressions (all-passes mode only)")
	version := fs.String("V", "", "verbose version output (vet -vettool protocol)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: ninflint [-passes list] [-fix] [-sarif file] [-audit] [packages]\n\npasses:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if len(args) == 1 && args[0] == "-flags" {
		// `go vet -vettool` asks the tool to enumerate its flags as
		// JSON before deciding what it may forward to it.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var flags []jsonFlag
		fs.VisitAll(func(f *flag.Flag) {
			flags = append(flags, jsonFlag{Name: f.Name, Usage: f.Usage})
		})
		out, err := json.Marshal(flags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ninflint:", err)
			return 2
		}
		os.Stdout.Write(out)
		fmt.Println()
		return 0
	}
	fs.Parse(args)

	if *version != "" {
		// `go vet -vettool` probes the tool identity before use and
		// requires a trailing buildID token for its action cache; hash
		// the executable so rebuilding the tool invalidates the cache.
		id := "unknown"
		if exe, err := os.Executable(); err == nil {
			if data, err := os.ReadFile(exe); err == nil {
				sum := sha256.Sum256(data)
				id = fmt.Sprintf("%x", sum[:8])
			}
		}
		fmt.Printf("ninflint version devel buildID=%s\n", id)
		return 0
	}
	analyzers, err := analysis.ByName(*passes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninflint:", err)
		return 2
	}
	if *audit && *passes != "" {
		// A subset run would flag suppressions aimed at the passes left
		// out; the audit is only sound when every pass ran.
		fmt.Fprintln(os.Stderr, "ninflint: -audit requires the full pass set (drop -passes)")
		return 2
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetUnit(rest[0], analyzers)
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	return runStandalone(rest, analyzers, *fix, *sarif, *audit)
}

func runStandalone(patterns []string, analyzers []*analysis.Analyzer, fix bool, sarifPath string, audit bool) int {
	pkgs, err := load.Packages(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninflint:", err)
		return 2
	}
	diags, err := analysis.RunAll(pkgs, analyzers, analysis.Options{AuditSuppressions: audit})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ninflint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		printDiag(d)
	}
	if sarifPath != "" {
		if err := writeSARIF(sarifPath, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, "ninflint: sarif:", err)
			return 2
		}
	}
	if fix {
		fixed, err := applyFixes(diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ninflint: fix:", err)
			return 2
		}
		if fixed > 0 {
			fmt.Fprintf(os.Stderr, "ninflint: applied %d fix(es)\n", fixed)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ninflint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// applyFixes applies the edits attached to the diagnostics, grouped by
// file, rejecting overlaps. It returns how many diagnostics were fixed.
func applyFixes(diags []analysis.Diagnostic) (int, error) {
	type edit struct {
		analysis.Edit
		diag int // index of the owning diagnostic
	}
	byFile := make(map[string][]edit)
	for i, d := range diags {
		for _, e := range d.Edits {
			byFile[e.Filename] = append(byFile[e.Filename], edit{Edit: e, diag: i})
		}
	}
	fixedDiags := make(map[int]bool)
	for file, edits := range byFile {
		data, err := os.ReadFile(file)
		if err != nil {
			return 0, err
		}
		// Apply bottom-up so earlier offsets stay valid.
		sort.Slice(edits, func(i, j int) bool { return edits[i].Start > edits[j].Start })
		prevStart := len(data) + 1
		for _, e := range edits {
			if e.Start < 0 || e.End < e.Start || e.End > len(data) {
				return 0, fmt.Errorf("%s: edit range [%d,%d) out of bounds", file, e.Start, e.End)
			}
			if e.End > prevStart {
				return 0, fmt.Errorf("%s: overlapping fixes; re-run after applying the first", file)
			}
			data = append(data[:e.Start], append([]byte(e.New), data[e.End:]...)...)
			prevStart = e.Start
			fixedDiags[e.diag] = true
		}
		if err := os.WriteFile(file, data, 0o644); err != nil {
			return 0, err
		}
	}
	return len(fixedDiags), nil
}

// --- SARIF 2.1.0 output (the static-analysis interchange format CI
// uploads to code scanning) ---

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
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
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

func writeSARIF(path string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{ID: "suppaudit",
		ShortDescription: sarifText{Text: "//lint:ninflint suppression matched no finding"}})
	results := make([]sarifResult, 0, len(diags))
	wd, _ := os.Getwd()
	for _, d := range diags {
		uri := d.Pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, uri); err == nil && !strings.HasPrefix(rel, "..") {
				uri = filepath.ToSlash(rel)
			}
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: uri},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ninflint", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// vetConfig is the package description `go vet` hands a -vettool via a
// JSON .cfg file (the unitchecker protocol).
type vetConfig struct {
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
}

func runVetUnit(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninflint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ninflint: parsing vet config:", err)
		return 2
	}
	// The vet driver hands the tool every package in the build graph,
	// standard library included; the invariants are specific to this
	// module, so everything else passes vacuously.
	if !inModule(cfg.ImportPath) {
		return 0
	}
	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	pkg, err := load.Files(fset, importer.ForCompiler(fset, "gc", lookup), cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninflint:", err)
		return 2
	}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninflint:", err)
		return 2
	}
	for _, d := range diags {
		printDiag(d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// inModule reports whether a vet-config import path (which may carry a
// " [pkg.test]" variant suffix) belongs to the ninf module.
func inModule(importPath string) bool {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		importPath = importPath[:i]
	}
	return importPath == "ninf" || strings.HasPrefix(importPath, "ninf/")
}

// printDiag writes one finding, with the filename relative to the
// working directory when that is shorter.
func printDiag(d analysis.Diagnostic) {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil && len(rel) < len(d.Pos.Filename) {
			d.Pos.Filename = rel
		}
	}
	fmt.Fprintln(os.Stderr, d.String())
}
