package analysis_test

// Canary tests: one deliberately seeded bug per pass, built in a temp
// dir at test time. They are the CI tripwire for the failure mode the
// // want fixtures cannot catch — a pass that silently stops firing
// (e.g. a heuristic tightened until it matches nothing) still passes a
// fixture whose wants were deleted along with the detection, but a
// canary pins the expected finding text independently.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ninf/internal/analysis"
	"ninf/internal/analysis/analysistest"
)

// runCanary materializes files (paths relative to a fresh fixture dir;
// "@BASE@" in sources is replaced by the dir's basename so fixture
// subpackages can be imported), runs one analyzer, and requires at
// least one finding from it whose message contains wantSub.
func runCanary(t *testing.T, az *analysis.Analyzer, files map[string]string, wantSub string) {
	t.Helper()
	dir := t.TempDir()
	base := filepath.Base(dir)
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		src = strings.ReplaceAll(src, "@BASE@", base)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, _ := analysistest.Load(t, dir)
	diags, err := analysis.RunAll(pkgs, []*analysis.Analyzer{az}, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == az.Name && strings.Contains(d.Message, wantSub) {
			return
		}
	}
	t.Fatalf("canary bug not detected: no %s finding containing %q; got %v", az.Name, wantSub, diags)
}

func TestCanaryLockNet(t *testing.T) {
	runCanary(t, analysis.LockNet, map[string]string{
		"canary.go": `package canary

import (
	"net"
	"sync"
)

type shared struct {
	mu   sync.Mutex
	conn net.Conn
}

func (s *shared) send(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.conn.Write(p)
	return err
}
`,
	}, "conn.Write while holding s.mu")
}

func TestCanaryCtxDeadline(t *testing.T) {
	runCanary(t, analysis.CtxDeadline, map[string]string{
		"canary.go": `package canary

import (
	"context"
	"net"
)

func Open(ctx context.Context, addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}
`,
	}, "Dial ignores the ctx parameter")
}

func TestCanaryErrClass(t *testing.T) {
	runCanary(t, analysis.ErrClass, map[string]string{
		"canary.go": `package canary

import "fmt"

func wrap(err error) error {
	return fmt.Errorf("call failed: %v", err)
}
`,
	}, "drops the error chain (no %w)")
}

func TestCanaryHotAlloc(t *testing.T) {
	runCanary(t, analysis.HotAlloc, map[string]string{
		"canary.go": `package canary

//ninflint:hotpath
func loop(n int) int {
	t := 0
	for i := 0; i < n; i++ {
		b := make([]byte, 16)
		t += len(b)
	}
	return t
}
`,
	}, "per-iteration make in hotpath")
}

func TestCanaryReleaseCheck(t *testing.T) {
	runCanary(t, analysis.ReleaseCheck, map[string]string{
		"canary.go": `package canary

type buffer struct{ n int }

func (b *buffer) Release() {}

func acquire() *buffer { return new(buffer) }

func leak(fail bool) int {
	b := acquire()
	if fail {
		return -1
	}
	b.Release()
	return 0
}
`,
	}, "return without releasing b")
}
