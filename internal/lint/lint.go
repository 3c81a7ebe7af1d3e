// Package lint is a Hobbit-specific static-analysis suite built directly
// on the standard library's go/parser, go/ast, and go/types (the repo's
// zero-dependency rule keeps golang.org/x/tools out). Its analyzers
// machine-check the invariants the reproduction depends on — same-seed
// runs must stay byte-identical, the probe hot path must stay off the
// allocator, and the versioned wire format must stay frozen — so
// regressions fail the tier-1 gate instead of waiting for review.
//
// A finding can be silenced in place with a directive comment on, or
// immediately above, the offending line:
//
//	//lint:ignore <analyzer-name> <reason>
//
// or for a whole file (used sparingly):
//
//	//lint:file-ignore <analyzer-name> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
// Standalone directives stack: a comment group made of several directive
// lines covers the statement after the group, so one line can be excused
// from more than one analyzer. A directive that suppresses nothing is
// itself reported (stale-suppression), keeping the sweep honest as
// analyzers evolve.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one surviving finding, rendered as
// "file:line: [name] message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	// Doc is the one-paragraph description DESIGN.md mirrors.
	Doc string
	// Run inspects the package and reports findings through
	// Pass.Reportf.
	Run func(p *Pass)
}

// Pass hands one loaded package to an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Path is the package import path; Dir its directory; ModulePath the
	// enclosing module.
	Path       string
	Dir        string
	ModulePath string
	// Files are type-checked non-test files; TestFiles are parsed-only
	// _test.go files (Info does not cover them).
	Files     []*ast.File
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info

	// report is wired by the driver before each analyzer's Run.
	report func(pos token.Pos, msg string)
}

// Reportf emits a finding for the currently running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// TypeOf returns the type of an expression, or nil when unknown (test
// files, unresolved code).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// PkgFuncCall resolves a call of the form pkg.Func to the imported
// package's path and the function name. Type information is used when
// available; otherwise (test files) the file's import table resolves the
// package identifier syntactically. It returns "", "" for anything else.
func (p *Pass) PkgFuncCall(f *ast.File, call *ast.CallExpr) (pkgPath, funcName string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if obj := p.ObjectOf(id); obj != nil {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path(), sel.Sel.Name
		}
		return "", ""
	}
	// Syntactic fallback: match the identifier against the import table.
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else {
			name = path[strings.LastIndex(path, "/")+1:]
		}
		if name == id.Name {
			return path, sel.Sel.Name
		}
	}
	return "", ""
}

// Suite is the default analyzer set, in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{
		AnalyzerNondetermRand,
		AnalyzerNondetermMapRange,
		AnalyzerWallclock,
		AnalyzerTelemetryNames,
		AnalyzerHotpathAlloc,
		AnalyzerAPICompat,
	}
}

// Run executes the analyzers over the packages and returns the surviving
// diagnostics (suppressions applied, stale directives reported), sorted
// by (file, line, column, analyzer, message) so multi-analyzer runs are
// byte-stable for CI diffing.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pass := l.PassFor(pkg)
		sup := newSuppressions(l.Fset, append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...))
		diags = append(diags, sup.malformed...)
		for _, a := range analyzers {
			pass.report = func(pos token.Pos, msg string) {
				position := l.Fset.Position(pos)
				if !sup.suppressed(a.Name, position) {
					diags = append(diags, Diagnostic{Pos: position, Analyzer: a.Name, Message: msg})
				}
			}
			a.Run(pass)
		}
		diags = append(diags, sup.stale(analyzers)...)
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders by (file, line, column, analyzer, message): a
// total order, so equal-position findings from different analyzers — or
// the same analyzer reporting twice on one expression — always render in
// the same sequence.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// directive is one parsed //lint:ignore or //lint:file-ignore comment.
type directive struct {
	pos      token.Position
	analyzer string
	fileWide bool
	used     bool
}

// suppressions indexes the directives of one package.
type suppressions struct {
	// lines maps file -> analyzer -> line -> directive covering it.
	lines map[string]map[string]map[int]*directive
	// files maps file -> analyzer -> file-wide directive.
	files      map[string]map[string]*directive
	directives []*directive
	malformed  []Diagnostic
}

func newSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{
		lines: map[string]map[string]map[int]*directive{},
		files: map[string]map[string]*directive{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			// Standalone directives stack: every directive in the group
			// covers through the line after the whole group, so several
			// analyzers can be excused above one statement.
			groupEnd := fset.Position(cg.End()).Line
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				var fileWide bool
				switch {
				case strings.HasPrefix(text, "lint:file-ignore"):
					text = strings.TrimPrefix(text, "lint:file-ignore")
					fileWide = true
				case strings.HasPrefix(text, "lint:ignore"):
					text = strings.TrimPrefix(text, "lint:ignore")
				default:
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "lint-directive",
						Message:  "malformed lint directive: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				d := &directive{pos: pos, analyzer: fields[0], fileWide: fileWide}
				s.directives = append(s.directives, d)
				if fileWide {
					byName := s.files[pos.Filename]
					if byName == nil {
						byName = map[string]*directive{}
						s.files[pos.Filename] = byName
					}
					byName[d.analyzer] = d
					continue
				}
				byName := s.lines[pos.Filename]
				if byName == nil {
					byName = map[string]map[int]*directive{}
					s.lines[pos.Filename] = byName
				}
				if byName[d.analyzer] == nil {
					byName[d.analyzer] = map[int]*directive{}
				}
				// The directive covers its own line (trailing form), the
				// rest of its comment group (stacked directives), and the
				// line after the group (standalone-above form).
				for line := pos.Line; line <= groupEnd+1; line++ {
					if byName[d.analyzer][line] == nil {
						byName[d.analyzer][line] = d
					}
				}
			}
		}
	}
	return s
}

func (s *suppressions) suppressed(analyzer string, pos token.Position) bool {
	if d := s.files[pos.Filename][analyzer]; d != nil {
		d.used = true
		return true
	}
	if d := s.lines[pos.Filename][analyzer][pos.Line]; d != nil {
		d.used = true
		return true
	}
	return false
}

// stale reports every well-formed directive that suppressed nothing in
// this run. Directives naming an analyzer outside the run's set are
// reported too — a typo in the name would otherwise silence nothing,
// forever, invisibly. A stale-suppression directive excuses the dormant
// directives it covers, but never itself: one that excused none is
// reported like any other directive that suppressed nothing.
func (s *suppressions) stale(analyzers []*Analyzer) []Diagnostic {
	known := map[string]bool{"lint-directive": true, "stale-suppression": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	report := func(d *directive) {
		msg := fmt.Sprintf("directive suppresses no %s finding; delete it or fix the justification", d.analyzer)
		if !known[d.analyzer] {
			msg = fmt.Sprintf("directive names unknown analyzer %q and can never suppress anything", d.analyzer)
		}
		diags = append(diags, Diagnostic{Pos: d.pos, Analyzer: "stale-suppression", Message: msg})
	}
	for _, d := range s.directives {
		if !d.used && d.analyzer != "stale-suppression" && !s.suppressed("stale-suppression", d.pos) {
			report(d)
		}
	}
	// Meta directives are judged only now, after the loop above marked
	// each one that excused a dormant directive.
	for _, d := range s.directives {
		if !d.used && d.analyzer == "stale-suppression" {
			report(d)
		}
	}
	return diags
}
