package analysis

// White-box tests for the suppression machinery: parseSuppressions'
// directive grammar, filterSuppressed's coverage window (own line +
// next line) and used-marking, and auditSuppressions' stale/unknown
// findings. The fixture-based tests exercise these end to end; the
// edge cases here (multiple directives on one finding, unknown pass
// names, justification stripping) are cheaper to pin directly.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSup(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "sup.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func diagAt(line int, az string) Diagnostic {
	return Diagnostic{
		Analyzer: az,
		Pos:      token.Position{Filename: "sup.go", Line: line, Column: 2},
		Message:  "synthetic finding",
	}
}

func TestParseSuppressionsGrammar(t *testing.T) {
	fset, files := parseSup(t, `package p

//lint:ninflint
//lint:ninflint hotalloc — warm-up iteration only
//lint:ninflint hotalloc, errclass -- two passes, dashed reason
//lint:ninflintnotadirective
func f() {}
`)
	sups := parseSuppressions(fset, files[0])
	if len(sups) != 3 {
		t.Fatalf("parsed %d suppressions, want 3 (the glued prefix must not count): %+v", len(sups), sups)
	}
	if sups[0].passes != nil || len(sups[0].names) != 0 {
		t.Errorf("bare directive should suppress all passes, got names %v", sups[0].names)
	}
	if len(sups[1].names) != 1 || sups[1].names[0] != "hotalloc" {
		t.Errorf("em-dash justification not stripped: names %v", sups[1].names)
	}
	if len(sups[2].names) != 2 || sups[2].names[0] != "hotalloc" || sups[2].names[1] != "errclass" {
		t.Errorf("comma list mis-parsed: names %v", sups[2].names)
	}
	if !sups[2].passes["errclass"] {
		t.Error("comma list did not populate the pass set")
	}
}

func TestFilterSuppressedSameLineBare(t *testing.T) {
	fset, files := parseSup(t, `package p

func f() int {
	return 1 //lint:ninflint
}
`)
	out, unused := filterSuppressed(fset, files, []Diagnostic{diagAt(4, "errclass")})
	if len(out) != 0 {
		t.Errorf("bare same-line directive left %d finding(s): %v", len(out), out)
	}
	if len(unused) != 0 {
		t.Errorf("matching directive reported unused: %+v", unused)
	}
}

func TestFilterSuppressedNextLineNamed(t *testing.T) {
	fset, files := parseSup(t, `package p

//lint:ninflint hotalloc — warm-up iteration only
func f() {}
`)
	diags := []Diagnostic{diagAt(4, "hotalloc"), diagAt(4, "errclass")}
	out, unused := filterSuppressed(fset, files, diags)
	if len(out) != 1 || out[0].Analyzer != "errclass" {
		t.Errorf("named next-line directive should drop only hotalloc, got %v", out)
	}
	if len(unused) != 0 {
		t.Errorf("used directive reported unused: %+v", unused)
	}
}

func TestFilterSuppressedCommaList(t *testing.T) {
	fset, files := parseSup(t, `package p

//lint:ninflint hotalloc, errclass -- both findings are intentional here
func f() {}
`)
	diags := []Diagnostic{diagAt(4, "hotalloc"), diagAt(4, "errclass"), diagAt(4, "locknet")}
	out, unused := filterSuppressed(fset, files, diags)
	if len(out) != 1 || out[0].Analyzer != "locknet" {
		t.Errorf("comma list should drop exactly its two passes, got %v", out)
	}
	if len(unused) != 0 {
		t.Errorf("used directive reported unused: %+v", unused)
	}
}

func TestFilterSuppressedMarksAllMatching(t *testing.T) {
	// Two directives cover the same finding (one above, one at end of
	// line): both must be marked used, or the audit would flag a
	// directive that is in fact load-bearing.
	fset, files := parseSup(t, `package p

//lint:ninflint
func f() { //lint:ninflint errclass
}
`)
	out, unused := filterSuppressed(fset, files, []Diagnostic{diagAt(4, "errclass")})
	if len(out) != 0 {
		t.Errorf("finding survived two covering directives: %v", out)
	}
	if len(unused) != 0 {
		t.Errorf("%d covering directive(s) reported unused: %+v", len(unused), unused)
	}
}

func TestFilterSuppressedOutOfWindow(t *testing.T) {
	// The window is the directive's line and the next one — a finding
	// two lines down must survive and the directive must surface as
	// unused.
	fset, files := parseSup(t, `package p

//lint:ninflint errclass — aimed at the wrong line
func f() int {
	return 1
}
`)
	out, unused := filterSuppressed(fset, files, []Diagnostic{diagAt(5, "errclass")})
	if len(out) != 1 {
		t.Errorf("finding outside the window was dropped: %v", out)
	}
	if len(unused) != 1 {
		t.Fatalf("directive outside any finding window not reported unused: %+v", unused)
	}
}

func TestAuditSuppressionsStale(t *testing.T) {
	fset, files := parseSup(t, `package p

//lint:ninflint
func f() {}

//lint:ninflint hotalloc, errclass — nothing fires here anymore
func g() {}
`)
	_, unused := filterSuppressed(fset, files, nil)
	if len(unused) != 2 {
		t.Fatalf("want 2 unused suppressions, got %+v", unused)
	}
	diags := auditSuppressions(unused, All())
	if len(diags) != 2 {
		t.Fatalf("want 2 audit findings, got %v", diags)
	}
	for _, d := range diags {
		if d.Analyzer != suppAuditName {
			t.Errorf("audit finding under analyzer %q, want %q", d.Analyzer, suppAuditName)
		}
	}
	if want := "stale suppression: no any pass finding on this or the next line"; diags[0].Message != want {
		t.Errorf("bare stale message = %q, want %q", diags[0].Message, want)
	}
	if want := "stale suppression: no hotalloc, errclass finding on this or the next line"; diags[1].Message != want {
		t.Errorf("named stale message = %q, want %q", diags[1].Message, want)
	}
	if diags[0].Pos.Line != 3 || diags[1].Pos.Line != 6 {
		t.Errorf("audit findings misplaced: lines %d, %d", diags[0].Pos.Line, diags[1].Pos.Line)
	}
}

func TestAuditSuppressionsUnknownPass(t *testing.T) {
	fset, files := parseSup(t, `package p

//lint:ninflint nosuchpass — typo for a real pass name
func f() {}
`)
	_, unused := filterSuppressed(fset, files, nil)
	diags := auditSuppressions(unused, All())
	if len(diags) != 1 {
		t.Fatalf("want 1 audit finding, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "suppression names unknown pass nosuchpass") {
		t.Errorf("unknown-pass message = %q", diags[0].Message)
	}
}

func TestAuditSuppressionsUsedDirectiveSilent(t *testing.T) {
	fset, files := parseSup(t, `package p

//lint:ninflint errclass — matched below
func f() {}
`)
	_, unused := filterSuppressed(fset, files, []Diagnostic{diagAt(4, "errclass")})
	if diags := auditSuppressions(unused, All()); len(diags) != 0 {
		t.Errorf("used directive produced audit findings: %v", diags)
	}
}
