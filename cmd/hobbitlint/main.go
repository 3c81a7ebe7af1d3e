// Command hobbitlint runs the repo's static-analysis suite (internal/lint)
// over the given package patterns and reports every violated determinism,
// hot-path, or wire-format invariant as "file:line: [analyzer] message".
//
// Usage:
//
//	hobbitlint [flags] [patterns...]       (default ./...)
//
//	-format=github  emit GitHub Actions annotations instead of plain text
//	-write-compat   regenerate compat.lock for packages with versioned
//	                wire structs (the api-compat freeze; see DESIGN.md §4c)
//
// Patterns are directories relative to the module root; a trailing /...
// walks subdirectories (skipping testdata, like the go tool). Naming a
// testdata directory explicitly lints it, which is how the analyzer
// fixtures are exercised by hand:
//
//	go run ./cmd/hobbitlint ./internal/lint/testdata/src/randpkg
//
// Exit status: 0 clean, 1 findings reported, 2 operational failure.
// Findings are suppressed in place with //lint:ignore <analyzer> <reason>
// (see internal/lint's package documentation); a directive that
// suppresses nothing is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/hobbitscan/hobbit/internal/lint"
)

func main() {
	format := flag.String("format", "text", "output format: text or github (GitHub Actions annotations)")
	writeCompat := flag.Bool("write-compat", false, "regenerate compat.lock for packages declaring versioned wire structs")
	flag.Parse()
	if *format != "text" && *format != "github" {
		fatal(fmt.Errorf("unknown -format %q (want text or github)", *format))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "hobbitlint: %s: type error: %v\n", p.Path, terr)
		}
	}

	if *writeCompat {
		if err := writeCompatLocks(loader, pkgs); err != nil {
			fatal(err)
		}
		return
	}

	diags := lint.Run(loader, pkgs, lint.Suite())
	for _, d := range diags {
		switch *format {
		case "github":
			fmt.Println(githubAnnotation(cwd, d))
		default:
			fmt.Println(relativize(cwd, d))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// writeCompatLocks regenerates the api-compat freeze file for every
// loaded package that declares versioned wire structs (or already has a
// lock, which an emptied package clears by deleting the file by hand —
// silent deletion would defeat the freeze).
func writeCompatLocks(loader *lint.Loader, pkgs []*lint.Package) error {
	wrote := 0
	for _, pkg := range pkgs {
		content := lint.CompatLock(loader.PassFor(pkg))
		if content == "" {
			continue
		}
		path := filepath.Join(pkg.Dir, lint.CompatLockFile)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "hobbitlint: wrote %s\n", path)
		wrote++
	}
	if wrote == 0 {
		return fmt.Errorf("no loaded package declares versioned wire structs; nothing to freeze")
	}
	return nil
}

// relativize renders the diagnostic with a cwd-relative path so output is
// clickable wherever the tool ran from.
func relativize(cwd string, d lint.Diagnostic) string {
	if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
		d.Pos.Filename = rel
	}
	return d.String()
}

// githubAnnotation renders one finding in GitHub Actions workflow-command
// syntax, so a CI lint job surfaces findings as inline PR annotations.
func githubAnnotation(cwd string, d lint.Diagnostic) string {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(cwd, file); err == nil && !filepath.IsAbs(rel) {
		file = rel
	}
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=hobbitlint %s::%s",
		ghEscapeProp(file), d.Pos.Line, d.Pos.Column,
		ghEscapeProp(d.Analyzer), ghEscapeData("["+d.Analyzer+"] "+d.Message))
}

// ghEscapeData escapes a workflow-command message payload.
func ghEscapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// ghEscapeProp escapes a workflow-command property value.
func ghEscapeProp(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hobbitlint:", err)
	os.Exit(2)
}
