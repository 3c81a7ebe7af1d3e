package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// AnalyzerAPICompat freezes the versioned wire format. A package that
// declares exported V<n> structs (internal/api's RunSummaryV1 family)
// checks in a compat.lock file describing their exact exported shape —
// field names, JSON tags, and types, with module-local struct fields
// (core.Options, telemetry.Snapshot) expanded transitively, since their
// fields are wire format too. The analyzer re-renders the shape on every
// run and diffs it against the lock: a deleted field, a retyped field,
// or an edited JSON tag is a wire break and fails tier-1 — complementing
// the golden files, which only pin bytes for the values a test happens
// to produce. Deliberate, additive v1 extensions (new omitempty fields,
// per DESIGN.md §4g) regenerate the lock with
// `go run ./cmd/hobbitlint -write-compat <pkg>`, so the diff shows up in
// review next to the code change.
var AnalyzerAPICompat = &Analyzer{
	Name: "api-compat",
	Doc: "diff the exported shape of a package's versioned (V<n>) wire " +
		"structs — field names, JSON tags, types, module structs expanded " +
		"— against its checked-in compat.lock; any drift is a wire-format " +
		"break until the lock is deliberately regenerated with " +
		"hobbitlint -write-compat",
	Run: runAPICompat,
}

// CompatLockFile is the per-package freeze file the analyzer diffs
// against.
const CompatLockFile = "compat.lock"

// versionedTypeRE matches wire-struct names: an exported name with a
// version suffix.
var versionedTypeRE = regexp.MustCompile(`V[0-9]+$`)

func runAPICompat(p *Pass) {
	shape := compatShape(p)
	lockPath := filepath.Join(p.Dir, CompatLockFile)
	data, err := os.ReadFile(lockPath)
	if err != nil {
		if len(shape.order) > 0 {
			p.Reportf(shape.pos[shape.order[0]], "package declares versioned wire structs (%s) but has no %s; "+
				"freeze the shape with `go run ./cmd/hobbitlint -write-compat %s`",
				strings.Join(shape.order, ", "), CompatLockFile, p.Path)
		}
		return
	}
	want := parseCompatLock(string(data))
	regen := fmt.Sprintf("if the change is a deliberate additive v1 extension, regenerate with "+
		"`go run ./cmd/hobbitlint -write-compat %s`", p.Path)
	for _, name := range shape.order {
		got := shape.blocks[name]
		frozen, ok := want.blocks[name]
		if !ok {
			p.Reportf(shape.pos[name], "wire struct %s is not frozen in %s; %s", name, CompatLockFile, regen)
			continue
		}
		if diff := firstShapeDiff(frozen, got); diff != "" {
			p.Reportf(shape.pos[name], "wire shape of %s drifted from %s (%s); this breaks the frozen v1 format — %s",
				name, CompatLockFile, diff, regen)
		}
	}
	for _, name := range want.order {
		if _, ok := shape.blocks[name]; !ok {
			p.Reportf(p.packagePos(), "wire struct %s is frozen in %s but no longer declared; "+
				"deleting a v1 type breaks clients — %s", name, CompatLockFile, regen)
		}
	}
}

// packagePos returns a stable position for package-level findings: the
// package clause of the first file.
func (p *Pass) packagePos() token.Pos {
	if len(p.Files) > 0 {
		return p.Files[0].Name.Pos()
	}
	return token.NoPos
}

// firstShapeDiff returns a human description of the first line where the
// frozen and current shapes disagree, or "".
func firstShapeDiff(frozen, got []string) string {
	for i := 0; i < len(frozen) || i < len(got); i++ {
		switch {
		case i >= len(frozen):
			return fmt.Sprintf("new line %q", strings.TrimSpace(got[i]))
		case i >= len(got):
			return fmt.Sprintf("missing line %q", strings.TrimSpace(frozen[i]))
		case frozen[i] != got[i]:
			return fmt.Sprintf("frozen %q, now %q", strings.TrimSpace(frozen[i]), strings.TrimSpace(got[i]))
		}
	}
	return ""
}

// compatBlocks is a rendered or parsed shape: one block of indented
// field lines per versioned type.
type compatBlocks struct {
	order  []string
	blocks map[string][]string
	pos    map[string]token.Pos
}

// compatShape renders the package's current wire shape.
func compatShape(p *Pass) compatBlocks {
	out := compatBlocks{blocks: map[string][]string{}, pos: map[string]token.Pos{}}
	if p.Pkg == nil {
		return out
	}
	scope := p.Pkg.Scope()
	locked := map[string]bool{}
	var names []string
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !obj.Exported() || !versionedTypeRE.MatchString(name) {
			continue
		}
		if _, ok := obj.Type().Underlying().(*types.Struct); !ok {
			continue
		}
		locked[name] = true
		names = append(names, name)
	}
	sort.Strings(names)
	typePos := typeSpecPositions(p)
	for _, name := range names {
		obj := scope.Lookup(name)
		st := obj.Type().Underlying().(*types.Struct)
		var lines []string
		renderStruct(p, st, 1, map[*types.Named]bool{}, locked, &lines)
		out.order = append(out.order, name)
		out.blocks[name] = lines
		if pos, ok := typePos[name]; ok {
			out.pos[name] = pos
		} else {
			out.pos[name] = p.packagePos()
		}
	}
	return out
}

// typeSpecPositions maps declared type names to their AST positions.
func typeSpecPositions(p *Pass) map[string]token.Pos {
	out := map[string]token.Pos{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					out[ts.Name.Name] = ts.Name.Pos()
				}
			}
		}
	}
	return out
}

// renderStruct appends one indented line per exported field. Fields
// whose type is (or contains, behind pointers/slices/maps) a struct
// defined in this module are expanded recursively: their fields are wire
// format too, and a drift there must trip the gate even though the edit
// happened in another package. Types locked at top level in this package
// are referenced by name, not re-expanded.
func renderStruct(p *Pass, st *types.Struct, depth int, seen map[*types.Named]bool, locked map[string]bool, out *[]string) {
	indent := strings.Repeat("  ", depth)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		line := indent + f.Name() + " " + typeLabelRel(p, f.Type())
		if jsonTag := reflect.StructTag(st.Tag(i)).Get("json"); jsonTag != "" {
			line += " `json:\"" + jsonTag + "\"`"
		}
		if inner := expandable(p, f.Type(), seen, locked); inner != nil {
			line += ":"
			*out = append(*out, line)
			named := inner
			seen[named] = true
			renderStruct(p, named.Underlying().(*types.Struct), depth+1, seen, locked, out)
			delete(seen, named)
			continue
		}
		*out = append(*out, line)
	}
}

// expandable unwraps pointers, slices, and map values looking for a
// module-defined named struct worth inlining.
func expandable(p *Pass, t types.Type, seen map[*types.Named]bool, locked map[string]bool) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Map:
			t = x.Elem()
		case *types.Named:
			obj := x.Obj()
			if obj == nil || obj.Pkg() == nil {
				return nil
			}
			if !strings.HasPrefix(obj.Pkg().Path(), p.ModulePath) {
				return nil
			}
			if obj.Pkg() == p.Pkg && locked[obj.Name()] {
				return nil // has its own top-level block
			}
			if seen[x] {
				return nil
			}
			if _, ok := x.Underlying().(*types.Struct); !ok {
				return nil
			}
			return x
		default:
			return nil
		}
	}
}

// typeLabelRel renders a type with package-name qualifiers (core.Options,
// not the full import path) and none for the package under analysis.
func typeLabelRel(p *Pass, t types.Type) string {
	return types.TypeString(t, func(other *types.Package) string {
		if other == p.Pkg {
			return ""
		}
		return other.Name()
	})
}

// parseCompatLock splits a lock file into per-type blocks. Lines
// starting with '#' and blank lines are commentary.
func parseCompatLock(data string) compatBlocks {
	out := compatBlocks{blocks: map[string][]string{}}
	current := ""
	for _, line := range strings.Split(data, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") || strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.HasPrefix(line, " ") {
			current = strings.TrimSuffix(strings.TrimSpace(line), ":")
			out.order = append(out.order, current)
			continue
		}
		if current != "" {
			out.blocks[current] = append(out.blocks[current], strings.TrimRight(line, " \t"))
		}
	}
	return out
}

// CompatLock renders the package's current wire shape as the full
// compat.lock file content, or "" when the package declares no versioned
// structs. cmd/hobbitlint -write-compat writes it.
func CompatLock(p *Pass) string {
	shape := compatShape(p)
	if len(shape.order) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("# hobbitlint api-compat lock: the frozen wire shape of this package's\n")
	b.WriteString("# exported V<n> structs (field names, JSON tags, types; module structs\n")
	b.WriteString("# expanded). Any drift fails the tier-1 gate. For a deliberate additive\n")
	b.WriteString("# v1 extension, regenerate with:\n")
	b.WriteString("#\n")
	b.WriteString(fmt.Sprintf("#   go run ./cmd/hobbitlint -write-compat %s\n", p.Path))
	b.WriteString("#\n")
	for _, name := range shape.order {
		b.WriteString(name + ":\n")
		for _, line := range shape.blocks[name] {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// PassFor builds a bare analysis pass over one loaded package: Run wires
// its reporter, and tooling (like -write-compat) reads package facts
// from it outside Run.
func (l *Loader) PassFor(pkg *Package) *Pass {
	return &Pass{
		Fset:       l.Fset,
		Path:       pkg.Path,
		Dir:        pkg.Dir,
		ModulePath: l.ModulePath,
		Files:      pkg.Files,
		TestFiles:  pkg.TestFiles,
		Pkg:        pkg.Types,
		Info:       pkg.Info,
	}
}
