// Package analysis is ninflint's analyzer framework: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis surface that the repository's vendored toolchain cannot
// provide. An Analyzer inspects one type-checked package at a time and
// reports Diagnostics; drivers (cmd/ninflint standalone, the vet -cfg
// protocol, and the analysistest fixture runner) supply the loaded
// packages and decide what to do with the findings.
//
// The analyzers enforce the data-plane invariants the performance work
// introduced — pooled frame buffers that must be released on every
// control-flow path, no blocking network I/O under a mutex, context
// propagation into dials, error-chain classification and
// allocation-free hot loops — because the paper's
// multi-client throughput numbers (§5–6) are only trustworthy while
// those invariants hold under concurrency.
//
// Intentional violations are suppressed with a comment on the flagged
// line or the line above:
//
//	//lint:ninflint                          suppress every pass
//	//lint:ninflint locknet                  suppress one pass
//	//lint:ninflint locknet,releasecheck — reason
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// An Analyzer is one ninflint pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and suppressions.
	Name string
	// Doc is a one-paragraph description of what the pass enforces.
	Doc string
	// Run inspects one package via the Pass and reports findings.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the cross-package summary store of the enclosing RunAll
	// (nil for single-package drivers such as the vet unitchecker mode;
	// every FactStore accessor tolerates a nil receiver).
	Facts *FactStore

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// report records a fully built diagnostic, stamping the pass name.
func (p *Pass) report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Edits, if non-empty, is a mechanical fix ninflint -fix can apply:
	// non-overlapping byte-range replacements within single files.
	Edits []Edit
}

// An Edit is one textual replacement of a suggested fix: the bytes
// [Start, End) of Filename are replaced by New (Start == End inserts).
type Edit struct {
	Filename   string
	Start, End int
	New        string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Package bundles everything a driver loads for one package.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Path and Imports (import paths, possibly including packages
	// outside the analyzed set) drive RunAll's dependency-ordered
	// scheduling; single-package drivers may leave them empty.
	Path    string
	Imports []string
}

// NewTypesInfo allocates the types.Info maps every pass relies on.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Run applies every analyzer to one package and returns the surviving
// diagnostics: suppressed findings are dropped, the rest are sorted by
// position. It is the single-package form of RunAll.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunAll([]*Package{pkg}, analyzers, Options{})
}

// Options configures a RunAll driver invocation.
type Options struct {
	// Facts is the cross-package summary store; nil allocates a fresh
	// one. Supplying a store lets drivers chain RunAll calls (the
	// analysistest runner propagates fixture-dependency summaries this
	// way).
	Facts *FactStore
	// Workers bounds concurrent package analysis; <= 0 means
	// GOMAXPROCS.
	Workers int
	// AuditSuppressions emits a "suppaudit" diagnostic for every
	// //lint:ninflint comment that suppressed nothing in this run, or
	// that names a pass that does not exist. Only meaningful when every
	// pass runs — a subset run would flag comments aimed at the passes
	// left out — so drivers enable it in all-passes mode only.
	AuditSuppressions bool
}

// suppAuditName is the pseudo-pass unused-suppression findings report
// under. It is not an Analyzer: audit findings are produced by the
// driver after suppression filtering, so they cannot themselves be
// suppressed.
const suppAuditName = "suppaudit"

// RunAll analyzes the packages in dependency order — a package is
// scheduled only after every listed import inside the set — so
// cross-package facts (ownership summaries) are
// complete before any dependent call site is inspected. Packages with
// no ordering edge between them run in parallel, bounded by
// opts.Workers. Diagnostics are merged and sorted by position.
func RunAll(pkgs []*Package, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	facts := opts.Facts
	if facts == nil {
		facts = NewFactStore()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// The first package to claim a path owns its done channel; Go
	// forbids import cycles, so waiting on in-set imports terminates.
	done := make(map[string]chan struct{})
	owner := make(map[string]int)
	for i, p := range pkgs {
		if p.Path != "" {
			if _, dup := done[p.Path]; !dup {
				done[p.Path] = make(chan struct{})
				owner[p.Path] = i
			}
		}
	}

	perPkg := make([][]Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range pkgs {
		wg.Add(1)
		go func(i int, p *Package) {
			defer wg.Done()
			defer func() {
				if owner[p.Path] == i && p.Path != "" {
					close(done[p.Path])
				}
			}()
			for _, imp := range p.Imports {
				if imp == p.Path {
					continue
				}
				if ch, ok := done[imp]; ok {
					<-ch
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			perPkg[i], errs[i] = runPackage(p, analyzers, facts, opts.AuditSuppressions)
		}(i, pkgs[i])
	}
	wg.Wait()

	var diags []Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		diags = append(diags, perPkg[i]...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// runPackage records the package's facts, runs every analyzer, and
// applies suppression filtering (optionally auditing the directives).
func runPackage(pkg *Package, analyzers []*Analyzer, facts *FactStore, audit bool) ([]Diagnostic, error) {
	computeFacts(pkg, facts)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			Facts:     facts,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	diags, unused := filterSuppressed(pkg.Fset, pkg.Files, diags)
	if audit {
		diags = append(diags, auditSuppressions(unused, analyzers)...)
	}
	return diags, nil
}

// auditSuppressions turns the suppressions that matched nothing (or
// that name nonexistent passes) into suppaudit findings.
func auditSuppressions(unused []*suppression, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, s := range unused {
		var bogus []string
		for _, name := range s.names {
			if !known[name] {
				bogus = append(bogus, name)
			}
		}
		switch {
		case len(bogus) > 0:
			out = append(out, Diagnostic{
				Analyzer: suppAuditName,
				Pos:      s.pos,
				Message:  fmt.Sprintf("suppression names unknown pass %s", strings.Join(bogus, ", ")),
			})
		default:
			what := "any pass"
			if len(s.names) > 0 {
				what = strings.Join(s.names, ", ")
			}
			out = append(out, Diagnostic{
				Analyzer: suppAuditName,
				Pos:      s.pos,
				Message:  fmt.Sprintf("stale suppression: no %s finding on this or the next line", what),
			})
		}
	}
	return out
}

// suppressionPrefix introduces a ninflint suppression comment.
const suppressionPrefix = "//lint:ninflint"

// suppression is one parsed //lint:ninflint comment.
type suppression struct {
	line   int
	pos    token.Position  // the comment itself, for audit findings
	names  []string        // declared pass list, in source order
	passes map[string]bool // nil means all passes
	used   bool            // matched at least one diagnostic this run
}

// parseSuppressions extracts the suppression directives of one file.
func parseSuppressions(fset *token.FileSet, f *ast.File) []*suppression {
	var sups []*suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, suppressionPrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, suppressionPrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:ninflintfoo
			}
			// Everything up to an em dash or "--" is the pass list; the
			// remainder is free-form justification.
			rest = strings.TrimSpace(rest)
			if i := strings.IndexAny(rest, "—"); i >= 0 {
				rest = strings.TrimSpace(rest[:i])
			}
			if i := strings.Index(rest, "--"); i >= 0 {
				rest = strings.TrimSpace(rest[:i])
			}
			pos := fset.Position(c.Pos())
			s := &suppression{line: pos.Line, pos: pos}
			if rest != "" {
				s.passes = make(map[string]bool)
				for _, name := range strings.Split(rest, ",") {
					if name = strings.TrimSpace(name); name != "" {
						s.passes[name] = true
						s.names = append(s.names, name)
					}
				}
			}
			sups = append(sups, s)
		}
	}
	return sups
}

// filterSuppressed drops diagnostics whose line (or the line below a
// directive-only line) carries a matching //lint:ninflint comment, and
// returns the suppressions that matched nothing for the audit.
func filterSuppressed(fset *token.FileSet, files []*ast.File, diags []Diagnostic) ([]Diagnostic, []*suppression) {
	// filename -> line -> suppressions covering that line
	covered := make(map[string]map[int][]*suppression)
	var all []*suppression
	for _, f := range files {
		pos := fset.Position(f.Pos())
		m := covered[pos.Filename]
		if m == nil {
			m = make(map[int][]*suppression)
			covered[pos.Filename] = m
		}
		for _, s := range parseSuppressions(fset, f) {
			all = append(all, s)
			// A directive suppresses findings on its own line and on
			// the following line (for directives placed above the code).
			m[s.line] = append(m[s.line], s)
			m[s.line+1] = append(m[s.line+1], s)
		}
	}
	out := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range covered[d.Pos.Filename][d.Pos.Line] {
			if s.passes == nil || s.passes[d.Analyzer] {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	var unused []*suppression
	for _, s := range all {
		if !s.used {
			unused = append(unused, s)
		}
	}
	return out, unused
}

// All returns every ninflint analyzer in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		ReleaseCheck,
		LockNet,
		CtxDeadline,
		ErrClass,
		HotAlloc,
	}
}

// ByName resolves a comma-separated pass list.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
