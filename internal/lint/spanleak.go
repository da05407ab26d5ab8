package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// SpanLeakAnalyzer proves that every *trace.Span obtained from
// Recorder.Begin/BeginChild reaches End — or escapes to another owner —
// on every path out of the function that acquired it. A span left open
// past a return is invisible until the per-cell OpenSpans leak check
// happens to run that cell; this analyzer makes the invariant
// machine-checked at build time.
var SpanLeakAnalyzer = &analysis.Analyzer{
	Name: "spanleak",
	Doc: "report *trace.Span values from Begin/BeginChild that miss End on some path out of the function; " +
		"returning, storing, or passing the span to a call settles it",
	Run: runSpanLeak,
}

var spanLeakRules = flowRules{
	acquires:       spanAcquires,
	consumeMethods: map[string]bool{"End": true},
	leakFormat: "span %s is not Ended (or handed off) on every path out of the function; " +
		"an early return leaves it open — defer %[1]s.End() or annotate with //bmcast:allow spanleak",
	overwriteFormat: "%s is reassigned while its span is still open; the old span can no longer be Ended",
}

func runSpanLeak(pass *analysis.Pass) (any, error) {
	runFlow(pass, spanLeakRules)
	if InModule(pass.Pkg.Path()) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if es, ok := n.(*ast.ExprStmt); ok {
					if call, ok := unparen(es.X).(*ast.CallExpr); ok && isSpanBegin(pass.TypesInfo, call) {
						pass.Reportf(es.Pos(), "result of %s is discarded; the span can never be Ended",
							beginCallName(call))
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// spanAcquires recognizes `sp := r.Begin(...)` / `sp = r.BeginChild(...)`
// in assignments and `var sp = r.Begin(...)` declarations.
func spanAcquires(info *types.Info, n ast.Node) []acquisition {
	var out []acquisition
	bind := func(lhs, rhs ast.Expr) {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || !isSpanBegin(info, call) {
			return
		}
		if v, id := lhsVar(info, lhs); v != nil {
			out = append(out, acquisition{v: v, pos: id.Pos()})
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Rhs {
				bind(s.Lhs[i], s.Rhs[i])
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i := range vs.Values {
						bind(vs.Names[i], vs.Values[i])
					}
				}
			}
		}
	}
	return out
}

// isSpanBegin matches a method call named Begin or BeginChild whose
// result is a *Span. The match is structural (type name, not import
// path) so linttest fixtures can model the recorder without importing
// internal/trace; within the module only the real tracer has this shape.
func isSpanBegin(info *types.Info, call *ast.CallExpr) bool {
	name := beginCallName(call)
	if name == "" {
		return false
	}
	if methodCall(info, call, name) == nil {
		return false
	}
	return namedResult(info.TypeOf(call), "Span")
}

func beginCallName(call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Begin", "BeginChild":
		return sel.Sel.Name
	}
	return ""
}
