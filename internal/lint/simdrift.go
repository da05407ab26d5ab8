package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// simdriftForbidden are the package-level functions of "time" that put
// real-time scheduling into a goroutine: they stall or wake execution on
// the wall clock, so two runs of the same seed interleave differently.
// (Pure clock *reads* — Now/Since/Until — are the walltime analyzer's
// territory.)
var simdriftForbidden = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// SimDriftAnalyzer flags scheduling nondeterminism in simulation
// packages: `go` statements, real-time sleeps and timers, and `select`s
// with two or more live communication cases.
//
// The sim kernel serializes all model execution onto one logical thread
// and advances a virtual clock; byte-identical same-seed traces depend
// on no model code racing the Go scheduler. A `go` statement hands
// ordering to the runtime, a timer wakes on machine speed, and a
// multi-case select resolves readiness ties by coin flip. The two
// legitimate uses (the kernel's own coroutine substrate, the experiment
// runner's worker pool with ordered merge) carry reasoned
// //bmcast:allow simdrift directives.
var SimDriftAnalyzer = &analysis.Analyzer{
	Name: "simdrift",
	Doc: "flag scheduling nondeterminism in simulation packages: go statements, " +
		"time.Sleep/After/timers, and selects with 2+ live comm cases",
	Run: runSimDrift,
}

func runSimDrift(pass *analysis.Pass) (any, error) {
	if !IsSimPackage(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(x.Pos(),
					"go statement hands execution order to the runtime scheduler; "+
						"sim code must run on the kernel's logical thread (annotate deliberate substrates with //bmcast:allow simdrift)")
			case *ast.SelectStmt:
				live := 0
				for _, cl := range x.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
						live++
					}
				}
				if live >= 2 {
					pass.Reportf(x.Pos(),
						"select with %d live comm cases resolves readiness ties nondeterministically; "+
							"sim code must not race channels (annotate with //bmcast:allow simdrift)", live)
				}
			case *ast.Ident:
				obj, ok := pass.TypesInfo.Uses[x].(*types.Func)
				if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				if obj.Type().(*types.Signature).Recv() != nil {
					return true
				}
				if simdriftForbidden[obj.Name()] {
					pass.Reportf(x.Pos(),
						"time.%s schedules on the wall clock; sim code must advance on sim.Kernel events (annotate harness code with //bmcast:allow simdrift)",
						obj.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
