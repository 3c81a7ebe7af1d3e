package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerNondetermMapRange flags `range` over a map whose body feeds
// order-sensitive sinks — appends to a slice, writes to an output stream,
// or feeds a hash/encoder. Go randomizes map iteration order on purpose,
// so any of those turns a same-seed run into different bytes. The
// canonical fixes: iterate a sorted key slice, or sort the collected
// result immediately after the loop (which the analyzer recognizes).
var AnalyzerNondetermMapRange = &Analyzer{
	Name: "nondeterm-maprange",
	Doc: "flag map iteration that appends to slices, writes output, or " +
		"feeds hashes/encoders without sorting; map order is randomized, " +
		"so such loops make output bytes nondeterministic",
	Run: runNondetermMapRange,
}

// sortFollowDistance is how many statements after the range loop a sort of
// the collected slice may appear and still count as the fix.
const sortFollowDistance = 3

func runNondetermMapRange(p *Pass) {
	report := p.Reportf
	for _, f := range p.Files {
		inspectBlocks(f, func(list []ast.Stmt) {
			for i, stmt := range list {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok || !isMapType(p.TypeOf(rs.X)) {
					continue
				}
				checkMapRange(p, f, rs, list[i+1:], report)
			}
		})
	}
}

// inspectBlocks visits every statement list in the file, giving the
// callback enough context to see what follows each statement.
func inspectBlocks(f *ast.File, visit func(list []ast.Stmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.BlockStmt:
			visit(b.List)
		case *ast.CaseClause:
			visit(b.Body)
		case *ast.CommClause:
			visit(b.Body)
		}
		return true
	})
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRange(p *Pass, f *ast.File, rs *ast.RangeStmt, following []ast.Stmt, report func(pos token.Pos, format string, args ...any)) {
	// Collect order-sensitive sinks in the loop body.
	var appendTargets []string
	outputSink := ""
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(s.Lhs) == 1 {
					if target := appendTarget(p, rs, s.Lhs[0]); target != "" {
						appendTargets = append(appendTargets, target)
					}
				}
			}
		case *ast.CallExpr:
			if name := outputCallName(p, f, s); name != "" && outputSink == "" {
				outputSink = name
			}
		}
		return true
	})

	if outputSink != "" {
		report(rs.Pos(), "map iteration order is randomized; %s inside this range writes "+
			"output in that order — iterate sorted keys instead", outputSink)
		return
	}
	for _, target := range appendTargets {
		if sortedAfter(p, f, target, following) {
			continue
		}
		report(rs.Pos(), "map iteration order is randomized; appending to %s inside this range "+
			"yields a nondeterministic order — sort %s afterwards or iterate sorted keys", target, target)
		return
	}
}

// appendTarget decides whether an append destination is order-sensitive
// and returns its rendered form. Order does not matter for variables
// declared inside the loop body (fresh each iteration) or for values
// stored into a map (keyed, not ordered).
func appendTarget(p *Pass, rs *ast.RangeStmt, lhs ast.Expr) string {
	switch t := lhs.(type) {
	case *ast.Ident:
		if obj := p.ObjectOf(t); obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() <= rs.End() {
			return "" // loop-local accumulator
		}
		return t.Name
	case *ast.IndexExpr:
		if isMapType(p.TypeOf(t.X)) {
			return "" // map write: keyed, order-free
		}
		return types.ExprString(t)
	default:
		return types.ExprString(lhs)
	}
}

// outputCallName recognizes calls that emit bytes whose order matters:
// fmt printing, io/buffer writes, encoders, and hash feeds.
func outputCallName(p *Pass, f *ast.File, call *ast.CallExpr) string {
	if pkg, fn := p.PkgFuncCall(f, call); pkg == "fmt" {
		switch fn {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return "fmt." + fn
		}
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Sum":
		return "." + sel.Sel.Name
	}
	return ""
}

// sortedAfter reports whether one of the next few statements sorts the
// collected slice: sort.*/slices.* calls, or any helper whose name starts
// with "Sort" (the repo's sorted-keys helpers, iputil.SortAddrs and
// friends), mentioning the target expression.
func sortedAfter(p *Pass, f *ast.File, target string, following []ast.Stmt) bool {
	limit := sortFollowDistance
	if len(following) < limit {
		limit = len(following)
	}
	for _, stmt := range following[:limit] {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isSortCall(p, f, call) {
				return true
			}
			for _, arg := range call.Args {
				if exprMentions(arg, target) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isSortCall(p *Pass, f *ast.File, call *ast.CallExpr) bool {
	pkg, fn := p.PkgFuncCall(f, call)
	if pkg == "sort" || pkg == "slices" {
		switch fn {
		case "Sort", "SortFunc", "SortStableFunc", "Stable",
			"Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
		return false
	}
	return strings.HasPrefix(calleeName(call), "Sort")
}

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// exprMentions reports whether the expression contains the rendered
// target, either as a bare identifier or as a selector path.
func exprMentions(arg ast.Expr, target string) bool {
	found := false
	ast.Inspect(arg, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.Ident:
			if x.Name == target {
				found = true
			}
		case *ast.SelectorExpr:
			if types.ExprString(x) == target {
				found = true
			}
		}
		return !found
	})
	return found
}
