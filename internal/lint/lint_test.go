package lint

import (
	"bytes"
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture expected.txt files")

// TestFixtures runs the full analyzer suite over every fixture package
// under testdata/src and compares the rendered diagnostics against the
// package's expected.txt golden. Regenerate goldens with
//
//	go test ./internal/lint -run TestFixtures -update
func TestFixtures(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			pkgs, err := loader.Load(filepath.Join("internal", "lint", dir))
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("loaded %d packages, want 1", len(pkgs))
			}
			for _, terr := range pkgs[0].TypeErrors {
				t.Errorf("fixture does not type-check: %v", terr)
			}
			var got bytes.Buffer
			for _, d := range Run(loader, pkgs, Suite()) {
				fmt.Fprintf(&got, "%s:%d: [%s] %s\n",
					filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
			}
			golden := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s",
					golden, got.String(), want)
			}
		})
	}
}

// TestSuiteNames pins the analyzer set: DESIGN.md documents one
// subsection per name, and tier1.sh gates on all of them.
func TestSuiteNames(t *testing.T) {
	want := []string{
		"nondeterm-rand", "nondeterm-maprange", "wallclock",
		"telemetry-names", "hotpath-alloc", "api-compat",
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
}

// TestSortDiagnostics pins the total order Run emits — (file, line,
// column, analyzer, message) — so multi-analyzer output stays
// byte-stable for CI diffing no matter the order analyzers report in.
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line, col int, analyzer, msg string) Diagnostic {
		return Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: analyzer,
			Message:  msg,
		}
	}
	want := []Diagnostic{
		mk("a.go", 3, 1, "wallclock", "x"),
		mk("a.go", 5, 2, "hotpath-alloc", "x"),
		mk("a.go", 5, 2, "wallclock", "a"),
		mk("a.go", 5, 2, "wallclock", "b"),
		mk("a.go", 5, 9, "api-compat", "x"),
		mk("b.go", 1, 1, "wallclock", "x"),
	}
	// Feed the worst case: fully reversed.
	got := make([]Diagnostic, len(want))
	for i, d := range want {
		got[len(want)-1-i] = d
	}
	sortDiagnostics(got)
	for i := range want {
		if got[i].Pos != want[i].Pos || got[i].Analyzer != want[i].Analyzer || got[i].Message != want[i].Message {
			t.Fatalf("position %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTreeClean runs the full suite over the whole module and demands
// zero findings: every suppression must be live and justified, and
// every compat.lock must match its package. Because this is a plain go
// test, a lint regression fails tier-1 even where tier1.sh isn't run.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	for _, d := range Run(loader, pkgs, Suite()) {
		t.Errorf("%s", d.String())
	}
}
