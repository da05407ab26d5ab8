package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/analysis"
	"repro/internal/lint/cfg"
)

// This file is the shared engine behind the path-sensitive analyzers.
// Two of them (spanleak, framebalance) prove the same
// shape of invariant — a value acquired here must be settled on every
// path out of the function — and differ only in what acquires and what
// settles. The third, pooledrelease, inverts the obligation: acquiring
// means releasing a record to its pool, and every later occurrence of
// the variable is the violation.
//
//	analyzer      acquires                      settles / is violated by
//	spanleak      sp := r.Begin/BeginChild(..)  sp.End(), or sp escapes
//	framebalance  f, _ := pool.Get(); f.Retain  f.Release(), or f escapes
//	pooledrelease p.release(r), append(free, r) any later use of r
//
// "Escapes" is deliberately broad and identical for the two leak
// analyzers: returning the value, storing it into anything that is not
// a plain local (field, map, slice, global), passing it as a call
// argument, sending it on a channel, capturing it in a closure, or
// taking its address hands the obligation to someone this
// intra-function analysis cannot see, so the value is treated as
// settled. That is the zero-false-positive bar: every report means no
// path settles the value and no path hands it off. Their facts meet
// with cfg.MayJoin (an obligation open on any path is open).
//
// pooledrelease facts meet with cfg.MustJoin instead: a variable counts
// as released only where every path reaching the point released it, so
// a release on an early-return branch does not poison the code after
// the join. A plain reassignment revives the variable, nothing is owed
// at exit, and closure-captured or address-taken variables stay
// tracked: a use inside a closure is still a use.
//
// Paths ending in panic/os.Exit are exempt (the cfg package gives them
// no edge to the function exit), matching the runtime contract: a
// panicking deployment is already lost, and the trace leak checker in
// the fleet harness owns that case.

// occKind classifies one syntactic occurrence of a tracked variable.
type occKind int

const (
	// occNeutral reads the value without settling it: a receiver of a
	// non-consuming method, a field access, a nil comparison.
	occNeutral occKind = iota
	// occSettle settles the obligation: a consuming method call, or any
	// escape (return / store / call argument / send / address-of /
	// closure capture).
	occSettle
	// occOverwrite is the variable appearing as a plain assignment
	// target: the old value is lost, which leaks an open obligation.
	occOverwrite
)

// flowRules parameterizes checkFlowBody for one analyzer.
type flowRules struct {
	// acquires returns the obligations node n creates, in source order.
	acquires func(info *types.Info, n ast.Node) []acquisition
	// consumeMethods are method names on the tracked value that settle
	// it (End, Release). May be empty: then only escape settles.
	consumeMethods map[string]bool
	// leakFormat renders the exit-path diagnostic; it receives the
	// variable name.
	leakFormat string
	// overwriteFormat renders the lost-before-settled diagnostic for a
	// plain reassignment; it receives the variable name.
	overwriteFormat string
	// useFormat, when set, inverts the obligation (see the file
	// comment): every occurrence of an acquired variable is reported
	// with this format, which receives the variable name and the
	// acquisition site. The leak rules above then go unused. Inverted,
	// checkFlowBody differs in five places: captured and address-taken
	// variables stay tracked, every occurrence is a use, facts meet
	// with MustJoin, a plain reassignment revives after its node, and
	// nothing is owed at exit.
	useFormat string
}

// acquisition is one point where a tracked obligation is created.
type acquisition struct {
	v *types.Var
	// pos is where the obligation is created; reports name it.
	pos token.Pos
	// reacquire marks obligations renewed through an existing value
	// (f.Retain()): they keep an earlier site as witness if one is
	// already open, instead of moving it.
	reacquire bool
}

// runFlow applies one flow analysis to every function in the package:
// declared functions and every function literal, each as its own graph.
func runFlow(pass *analysis.Pass, rules flowRules) {
	if !InModule(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFlowBody(pass, rules, fn.Body)
				}
			case *ast.FuncLit:
				checkFlowBody(pass, rules, fn.Body)
				// keep descending: nested literals are found below
			}
			return true
		})
	}
}

// checkFlowBody proves the rules over one function body.
func checkFlowBody(pass *analysis.Pass, rules flowRules, body *ast.BlockStmt) {
	info := pass.TypesInfo
	g := cfg.New(body)
	inverted := rules.useFormat != ""

	// For the leak rules, variables captured by a closure or
	// address-taken anywhere in this body are untrackable: a deferred
	// closure may settle them later regardless of where the acquisition
	// sits, so tracking them risks false positives. (The closure body is
	// analyzed as its own function; obligations it acquires itself are
	// still proven.)
	var untrackable map[*types.Var]bool
	if !inverted {
		untrackable = untrackableVars(info, body)
	}

	// Deterministic site table: acquisitions in block/node order, keyed
	// by variable and position (one push may release several values).
	type siteKey struct {
		v   *types.Var
		pos token.Pos
	}
	var sites []acquisition
	siteOf := make(map[siteKey]uint8)
	trackedVars := make(map[*types.Var]bool)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			for _, a := range rules.acquires(info, n) {
				k := siteKey{a.v, a.pos}
				if _, dup := siteOf[k]; dup || untrackable[a.v] {
					continue
				}
				if len(sites) >= 255 {
					return // give up on absurdly large functions
				}
				siteOf[k] = uint8(len(sites) + 1)
				sites = append(sites, a)
				trackedVars[a.v] = true
			}
		}
	}
	if len(sites) == 0 {
		return
	}

	transfer := func(report bool) func(n ast.Node, f cfg.Facts) {
		return func(n ast.Node, f cfg.Facts) {
			var revived []*types.Var
			forEachTrackedUse(info, n, trackedVars, rules.consumeMethods,
				func(v *types.Var, id *ast.Ident, k occKind) {
					switch {
					case inverted && k == occOverwrite:
						// Revive after the whole node: `r = next(r)`
						// still reads the released r.
						revived = append(revived, v)
					case inverted:
						if st := f[v]; st != 0 && report {
							pass.Reportf(id.Pos(), rules.useFormat, id.Name,
								pass.Fset.Position(sites[st-1].pos))
						}
					case k == occSettle:
						delete(f, v)
					case k == occOverwrite && f[v] != 0:
						if report {
							pass.Reportf(id.Pos(), rules.overwriteFormat, id.Name)
						}
						delete(f, v)
					}
				})
			for _, v := range revived {
				delete(f, v)
			}
			for _, a := range rules.acquires(info, n) {
				st, ok := siteOf[siteKey{a.v, a.pos}]
				if !ok {
					continue // untrackable or beyond the site cap
				}
				if a.reacquire && f[a.v] != 0 {
					continue // keep the earlier witness
				}
				f[a.v] = st
			}
		}
	}

	join := cfg.MayJoin
	if inverted {
		join = cfg.MustJoin
	}
	in := cfg.Forward(g, cfg.Analysis{Transfer: transfer(false), Join: join})

	// Replay the solution once, in block order, to report overwrites
	// and uses.
	rt := transfer(true)
	for _, b := range g.Blocks {
		f, reachable := in[b]
		if !reachable {
			continue
		}
		f = f.Clone()
		for _, n := range b.Nodes {
			rt(n, f)
		}
	}
	if inverted {
		return // nothing is owed at exit
	}

	// Obligations still open at the function exit leak on some path.
	var leaked []int
	seen := make(map[uint8]bool)
	for _, st := range in[g.Exit] {
		if st != 0 && !seen[st] {
			seen[st] = true
			leaked = append(leaked, int(st)-1)
		}
	}
	sort.Ints(leaked)
	for _, i := range leaked {
		pass.Reportf(sites[i].pos, rules.leakFormat, sites[i].v.Name())
	}
}

// untrackableVars collects variables that a function literal captures
// or whose address is taken anywhere under body.
func untrackableVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					out[v] = true
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			mark(x.Body)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := unparen(x.X).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						out[v] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// forEachTrackedUse walks one CFG node (which never contains nested
// statement bodies — the cfg builder decomposes those, except inside
// function literals) and classifies every identifier occurrence
// resolving to a tracked variable. An occurrence inside a function
// literal is a capture: the value escapes into the closure.
func forEachTrackedUse(info *types.Info, root ast.Node, tracked map[*types.Var]bool,
	consumeMethods map[string]bool, visit func(*types.Var, *ast.Ident, occKind)) {

	// A RangeStmt node in a block is the cfg builder's marker for the
	// per-iteration key/value assignment only — the operand and body are
	// placed in other blocks. Visit just the assignment targets.
	if rs, ok := root.(*ast.RangeStmt); ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && tracked[v] {
					visit(v, id, occOverwrite)
				}
			}
		}
		return
	}

	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !tracked[v] {
			return true
		}
		visit(v, id, classifyUse(stack, id, consumeMethods))
		return true
	})
	// The final Inspect(nil) calls popped the stack back; nothing to do.
}

// classifyUse decides how the innermost enclosing construct treats the
// value of id. stack is the ancestor chain, id last.
func classifyUse(stack []ast.Node, id *ast.Ident, consumeMethods map[string]bool) occKind {
	for _, n := range stack {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return occSettle
		}
	}
	// Find the nearest non-paren ancestor.
	i := len(stack) - 2
	for i >= 0 {
		if _, isParen := stack[i].(*ast.ParenExpr); isParen {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return occNeutral
	}
	switch p := stack[i].(type) {
	case *ast.SelectorExpr:
		if unparen(p.X) != ast.Expr(id) {
			return occNeutral // id is the Sel, resolved elsewhere
		}
		// id.method(...) / id.field: consuming method settles; every
		// other receiver or field access is a plain read.
		if i > 0 {
			if call, ok := stack[i-1].(*ast.CallExpr); ok && unparen(call.Fun) == ast.Expr(p) {
				if consumeMethods[p.Sel.Name] {
					return occSettle
				}
			}
		}
		return occNeutral
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == ast.Expr(id) {
				return occOverwrite
			}
		}
		// id on the right-hand side: aliased or stored somewhere. A
		// pure discard (`_ = id`) is a read, not a hand-off.
		if len(p.Lhs) == len(p.Rhs) {
			for k, rhs := range p.Rhs {
				if rhs == ast.Expr(id) {
					if lid, ok := p.Lhs[k].(*ast.Ident); ok && lid.Name == "_" {
						return occNeutral
					}
				}
			}
		}
		return occSettle
	case *ast.BinaryExpr:
		return occNeutral // comparisons (sp != nil) read, never settle
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return occSettle // address escapes
		}
		return occNeutral
	case *ast.IfStmt, *ast.SwitchStmt, *ast.CaseClause, *ast.IncDecStmt, *ast.ExprStmt:
		return occNeutral
	default:
		// Return, call argument, composite literal, channel send, map
		// index, range operand, conversion, ... — the value flows
		// somewhere this analysis cannot follow; treat as settled.
		return occSettle
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// --- shared type-shape matchers ------------------------------------------

// namedResult reports whether t (possibly behind a pointer) is a named
// type with the given name.
func namedResult(t types.Type, name string) bool {
	tn := namedOf(t)
	return tn != nil && tn.Name() == name
}

// methodCall returns the selector of call when it invokes a method (a
// *types.Func with a receiver) named name, or nil.
func methodCall(info *types.Info, call *ast.CallExpr, name string) *ast.SelectorExpr {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return nil
	}
	return sel
}

// lhsVar resolves a plain, non-blank identifier assignment target to
// its variable (definitions and reassignments both).
func lhsVar(info *types.Info, e ast.Expr) (*types.Var, *ast.Ident) {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v, id
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v, id
	}
	return nil, nil
}
