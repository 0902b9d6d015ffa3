package ninf_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocTestNames keeps the test names the docs and CI give pointing at
// tests that exist. A backticked `TestXxx` in README.md or DESIGN.md
// must name a test function (a trailing * makes it a prefix), and every
// |-separated alternative of a go test -run pattern in the CI workflow
// must match some Test or Fuzz function. go test exits 0 when -run
// matches nothing, so a renamed test would otherwise leave a CI step
// that quietly tests nothing.
func TestDocTestNames(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil || len(names) == 0 {
		t.Fatalf("collecting test names: %d found, %v", len(names), err)
	}

	ref := regexp.MustCompile("`(Test\\w+)(\\*?)")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(text), -1) {
			name, prefix := m[1], m[2] == "*"
			if !slices.ContainsFunc(names, func(n string) bool { return n == name || prefix && strings.HasPrefix(n, name) }) {
				t.Errorf("%s names `%s%s`, which no _test.go file declares", doc, name, m[2])
			}
		}
	}

	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	run := regexp.MustCompile(`-run[ =]('[^']*'|"[^"]*"|\S+)`)
	for i, line := range strings.Split(string(ci), "\n") {
		if !strings.Contains(line, "go test") || strings.Contains(line, "-fuzz") || strings.Contains(line, "-bench") {
			continue
		}
		for _, m := range run.FindAllStringSubmatch(line, -1) {
			pattern := strings.Trim(m[1], `'"`)
			if pattern == "^$" {
				continue
			}
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml:%d: -run alternative %q matches no Test or Fuzz function", i+1, alt)
				}
			}
		}
	}
}
