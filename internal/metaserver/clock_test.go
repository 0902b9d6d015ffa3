package metaserver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// clock is a test clock for newMetaserver and RemoteScheduler.now: it
// stands still until advanced.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_700_000_000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestClockSeamHolds parses the package's non-test files and fails on
// any wall-clock read (time.Now, time.Since, time.Until) that is not
// the argument of a SetDeadline call: every decision the metaserver
// makes reads Metaserver.now or RemoteScheduler.now, so a test can move
// the clock instead of sleeping. The four socket deadlines stay on
// wall time.
func TestClockSeamHolds(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	deadlines := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		// Calls inside a SetDeadline argument are the allowed reads.
		allowed := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "SetDeadline" {
				for _, arg := range call.Args {
					ast.Inspect(arg, func(n ast.Node) bool {
						if c, ok := n.(*ast.CallExpr); ok && wallClockRead(c, timePkg) {
							allowed[c] = true
						}
						return true
					})
				}
			}
			if wallClockRead(call, timePkg) {
				if allowed[call] {
					deadlines++
				} else {
					t.Errorf("%s: wall-clock read outside a socket deadline; read the metaserver's now instead", fset.Position(call.Pos()))
				}
			}
			return true
		})
	}
	if deadlines != 4 {
		t.Errorf("%d wall-clock socket deadlines, want the 4 of ServeConn, onceLocked, pollStats and exchangeGossip", deadlines)
	}
}

// wallClockRead reports whether call is time.Now, time.Since or
// time.Until, with the time package imported as pkg.
func wallClockRead(call *ast.CallExpr, pkg string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != pkg {
		return false
	}
	switch sel.Sel.Name {
	case "Now", "Since", "Until":
		return true
	}
	return false
}
