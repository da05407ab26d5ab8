package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// PooledReleaseAnalyzer flags use of a pooled value after it has been
// released back to its pool within the same function. The simulator leans
// on free-lists for its zero-alloc hot paths — the sim kernel's event
// records, the AoE initiator's request pool, recycled disk buffers — and
// a record touched after release is the worst kind of bug: it corrupts
// whichever *later* event reuses the record, far from the culprit, and
// only under workloads that recycle fast enough.
//
// A value is considered released by any of:
//
//   - a call releasing its single pointer argument: x.release(v),
//     pool.Put(v), x.free(v). The lowercase names are the simulator's
//     internal free-list convention and always count; the exported
//     spellings (Release/Put/Free) are also common API verbs for leases
//     and semaphores, so they count only with pool evidence — a
//     pool-named receiver, or an argument type this package demonstrably
//     pushes onto a free list
//   - a free-list push: append(x.free, v), append(x.reqPool, v) — any
//     append whose destination name contains "free" or "pool"
//   - a Release/Free method on the value itself, v.Release() — but only
//     when the package demonstrably pools v's type (it appears in one of
//     the two patterns above somewhere in the package). This keeps
//     semaphore-style Release methods (sim.Resource, hw/mem.Memory) out
//     of scope: releasing capacity is not releasing memory.
//
// The analysis is the shared flow harness (flow.go) with the obligation
// inverted: each release is an acquisition, facts meet with a must-join,
// and a variable counts as released at a point only when *every* path
// reaching that point has released it. Releases on one arm of a branch
// therefore do not poison code after the join — early-return error paths
// (`if err != nil { release(v); return }`) stay clean — but uses later in
// the same path, in later branches, in defers registered or closures
// created after the release are reported, until the variable is
// reassigned (revived). A use on a loop's next iteration is *not*
// reported: the loop head meets the entry edge, on which the variable is
// not released yet. Releases inside a defer, go statement, or function
// literal are not recorded: they execute at another point in time. This
// is deliberately a same-function analysis — cheap, zero false positives
// on the idioms the simulator uses — not a whole-program escape analysis.
var PooledReleaseAnalyzer = &analysis.Analyzer{
	Name: "pooledrelease",
	Doc: "flag reads/writes through a pooled value after its release/free-list " +
		"put within the same function",
	Run: runPooledRelease,
}

// releaseMethodsOnValue are method names that release their receiver
// (gated on the receiver's type being pooled in this package).
var releaseMethodsOnValue = map[string]bool{"Release": true, "Free": true}

// releaseFuncs are function/method names that release their single
// pointer argument.
var releaseFuncs = map[string]bool{"release": true, "free": true, "put": true, "Put": true, "Release": true, "Free": true}

type prChecker struct {
	pass *analysis.Pass
	// pushed is the set of named types this package appends to a
	// free-list-named slice — the strongest pooling evidence, used to
	// qualify exported-name release calls.
	pushed map[*types.TypeName]bool
	// pooled additionally includes types released through qualifying
	// release calls; only these may be released through a receiver method.
	pooled map[*types.TypeName]bool
}

func runPooledRelease(pass *analysis.Pass) (any, error) {
	if !InModule(pass.Pkg.Path()) {
		return nil, nil
	}
	c := &prChecker{
		pass:   pass,
		pushed: map[*types.TypeName]bool{},
		pooled: map[*types.TypeName]bool{},
	}
	// Two evidence passes: free-list pushes first, because they decide
	// whether an exported-name release call qualifies at all.
	for _, f := range pass.Files {
		c.collectPushedTypes(f)
	}
	for _, f := range pass.Files {
		c.collectPooledTypes(f)
	}
	runFlow(pass, flowRules{
		acquires: c.releasesIn,
		useFormat: "%s used after being released to its pool at %s; " +
			"the record may already belong to another owner",
	})
	return nil, nil
}

// collectPushedTypes records the named types that flow into a free-list
// push anywhere in f.
func (c *prChecker) collectPushedTypes(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, arg := range c.freelistPushArgs(call) {
				if tn := namedOf(c.pass.TypesInfo.TypeOf(arg)); tn != nil {
					c.pushed[tn] = true
					c.pooled[tn] = true
				}
			}
		}
		return true
	})
}

// collectPooledTypes additionally records types that flow into a
// qualifying release call anywhere in f.
func (c *prChecker) collectPooledTypes(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if arg := c.releaseCallArg(call); arg != nil {
				if tn := namedOf(c.pass.TypesInfo.TypeOf(arg)); tn != nil {
					c.pooled[tn] = true
				}
			}
		}
		return true
	})
}

// releasesIn scans one CFG node for release patterns: the flow rules'
// acquisitions. Function literals are opaque (analyzed as their own
// bodies), defers and go statements release at another point in time,
// and a RangeStmt node is only the key/value re-binding marker.
func (c *prChecker) releasesIn(_ *types.Info, n ast.Node) []acquisition {
	switch n.(type) {
	case *ast.RangeStmt, *ast.DeferStmt, *ast.GoStmt:
		return nil
	}
	var out []acquisition
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if args := c.freelistPushArgs(call); args != nil {
			for _, arg := range args {
				if v := c.localVar(arg); v != nil {
					out = append(out, acquisition{v: v, pos: call.Pos()})
				}
			}
			return true
		}
		if arg := c.releaseCallArg(call); arg != nil {
			if v := c.localVar(arg); v != nil {
				out = append(out, acquisition{v: v, pos: call.Pos()})
			}
			return true
		}
		// v.Release() / v.Free(): receiver released, if its type is
		// actually pooled somewhere in this package.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
			releaseMethodsOnValue[sel.Sel.Name] && len(call.Args) == 0 {
			if tn := namedOf(c.pass.TypesInfo.TypeOf(sel.X)); tn != nil && c.pooled[tn] {
				if v := c.localVar(sel.X); v != nil {
					out = append(out, acquisition{v: v, pos: call.Pos()})
				}
			}
		}
		return true
	})
	return out
}

// freelistPushArgs returns the values call pushes onto a free list
// (append(x.free, v...) with a pool-named destination), or nil.
func (c *prChecker) freelistPushArgs(call *ast.CallExpr) []ast.Expr {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return nil
	}
	if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	if !isPoolName(exprName(call.Args[0])) {
		return nil
	}
	return call.Args[1:]
}

// releaseCallArg returns the single pointer argument released by an
// x.release(v)-shaped call, or nil. Exported release verbs (Release,
// Put, Free) are also ordinary API names — returning a lease, freeing a
// semaphore slot — so they qualify only with pool evidence: a pool-named
// receiver or an argument type this package pushes onto a free list.
func (c *prChecker) releaseCallArg(call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !releaseFuncs[sel.Sel.Name] || len(call.Args) != 1 {
		return nil
	}
	t := c.pass.TypesInfo.TypeOf(call.Args[0])
	if t == nil {
		return nil
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		return nil
	}
	if ast.IsExported(sel.Sel.Name) && !isPoolName(exprName(sel.X)) {
		if tn := namedOf(t); tn == nil || !c.pushed[tn] {
			return nil
		}
	}
	return call.Args[0]
}

// localVar resolves expr, parentheses stripped, to a plain local
// identifier's variable, or nil.
// Field selectors (in.pending[id]) are beyond this tracking.
func (c *prChecker) localVar(expr ast.Expr) *types.Var {
	id, ok := unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

// namedOf unwraps pointers to the defining TypeName, or nil for
// unnamed/builtin types.
func namedOf(t types.Type) *types.TypeName {
	for t != nil {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x.Obj()
		default:
			return nil
		}
	}
	return nil
}

// exprName renders the trailing name of an identifier or selector chain
// ("free" for k.free), for pool-name matching.
func exprName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// isPoolName reports whether a destination name marks a free-list.
func isPoolName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "free") || strings.Contains(l, "pool")
}
