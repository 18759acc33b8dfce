package analysis

// Fixture-based diagnostics tests: every pass has a failing fixture
// (each finding line carries a trailing `// want "regex"` comment) and
// a clean fixture (no wants, and the pass must stay silent). The driver
// matches reported diagnostics against wants by file and line, both
// ways: an unexpected diagnostic fails, and an unmatched want fails.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// fixtureWant is one expectation parsed from a `// want` comment.
type fixtureWant struct {
	re      *regexp.Regexp
	matched bool
}

func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range Analyzers() {
		for _, kind := range []string{"bad", "good"} {
			a, kind := a, kind
			t.Run(a.Name+"/"+kind, func(t *testing.T) {
				dir := filepath.Join("testdata", "src", a.Name, kind)
				pkg, err := loader.LoadDir(dir, "fixture/"+a.Name+"/"+kind)
				if err != nil {
					t.Fatal(err)
				}

				wants := collectWants(t, pkg)
				if kind == "bad" && len(wants) == 0 {
					t.Fatal("bad fixture declares no wants")
				}
				if kind == "good" && len(wants) != 0 {
					t.Fatal("good fixture must not declare wants")
				}

				for _, d := range RunAnalyzer(a, pkg) {
					key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
					if !matchWant(wants[key], d.Message) {
						t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
					}
				}
				for key, ws := range wants { //flexlint:allow determinism test failure enumeration
					for _, w := range ws {
						if !w.matched {
							t.Errorf("no diagnostic at %s matched want %q", key, w.re)
						}
					}
				}
			})
		}
	}
}

// collectWants indexes the fixture's want comments by "file:line".
func collectWants(t *testing.T, pkg *Package) map[string][]*fixtureWant {
	t.Helper()
	wants := make(map[string][]*fixtureWant)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				wants[key] = append(wants[key], &fixtureWant{re: re})
			}
		}
	}
	return wants
}

// matchWant consumes the first unmatched want whose regexp matches msg.
func matchWant(ws []*fixtureWant, msg string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}
