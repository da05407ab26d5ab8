// Package cfg builds intra-function control-flow graphs over go/ast and
// runs forward dataflow analyses over them. It is the foundation of the
// path-sensitive bmcastlint analyzers (spanleak, framebalance,
// pooledrelease): where the original analyzers reasoned about
// straight-line statement order, these reason about every path a
// function can take — early returns, goto, labeled break/continue,
// switch fallthrough, select arms — and prove an invariant on all of
// them.
//
// The graph is deliberately small: basic blocks of ast.Node slices with
// successor edges. Compound statements are decomposed — a block holds
// only the parts that execute when control passes through it (an if's
// Init and Cond, a for's Cond, a range's operand), never a nested body;
// bodies live in their own blocks. Analyzers therefore never need to
// guard against visiting the same code twice.
//
// Three modeling decisions analyzers rely on:
//
//   - Defer statements appear as ordinary *ast.DeferStmt nodes at the
//     point where the defer is *registered*. A deferred call runs at
//     every function exit reachable from that point, so a forward
//     analysis may treat "defer release(x)" as settling x's obligation
//     right there — paths that never execute the defer statement never
//     see the node. Analyzers that care about when the deferred body
//     actually runs (use-after-release) instead skip DeferStmt effects.
//   - panic(...), os.Exit(...) and runtime.Goexit() terminate their
//     block with no successor: such paths never reach Exit, so
//     obligations checked "on every path out of the function" are not
//     demanded on panic paths.
//   - Function literals are opaque: the builder never descends into a
//     FuncLit body. Each literal should be built as its own Graph.
package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
)

// Block is one basic block: nodes that execute in order, then a
// transfer of control to one of Succs. A block with no successors
// terminates execution (return blocks instead edge to the synthetic
// Exit; successor-less blocks are panic/os.Exit paths or empty selects).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// Graph is the control-flow graph of one function body. Blocks[0] is
// the entry block; Exit is a synthetic, empty block every return and
// the fall-off-the-end path feed into. Exit carries the function's
// final dataflow facts.
type Graph struct {
	Blocks []*Block
	Exit   *Block
}

// New builds the control-flow graph for one function body.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	entry := b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = entry
	b.labels = make(map[string]*labelInfo)
	b.stmtList(body.List)
	b.edge(b.cur, b.g.Exit) // fall off the end
	for _, pg := range b.gotos {
		if li := b.labels[pg.label]; li != nil {
			b.edge(pg.from, li.target)
		}
	}
	return b.g
}

// labelInfo tracks one label: the block its statement starts (goto
// target) and, when it labels a loop/switch/select, where labeled
// break and continue go.
type labelInfo struct {
	target     *Block
	breakTo    *Block
	continueTo *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g      *Graph
	cur    *Block
	labels map[string]*labelInfo
	gotos  []pendingGoto

	// Innermost-last targets for unlabeled break/continue. Loops push
	// both; switch/select push only breaks.
	breaks    []*Block
	continues []*Block

	// fallthroughTo is the next case body while building a switch case.
	fallthroughTo *Block
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

// ensureLabel returns the labelInfo for name, creating its target block
// on first reference (forward gotos reference labels not yet declared).
func (b *builder) ensureLabel(name string) *labelInfo {
	if li, ok := b.labels[name]; ok {
		return li
	}
	li := &labelInfo{target: b.newBlock()}
	b.labels[name] = li
	return li
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, nil)
	}
}

// stmt lowers one statement. label is non-nil when the statement is the
// body of a LabeledStmt, so loops/switches register labeled targets.
func (b *builder) stmt(s ast.Stmt, label *labelInfo) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.ensureLabel(s.Label.Name)
		b.edge(b.cur, li.target)
		b.cur = li.target
		b.stmt(s.Stmt, li)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = b.newBlock() // anything after is unreachable

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.breakTo != nil {
					b.edge(b.cur, li.breakTo)
				}
			} else if n := len(b.breaks); n > 0 {
				b.edge(b.cur, b.breaks[n-1])
			}
		case token.CONTINUE:
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil && li.continueTo != nil {
					b.edge(b.cur, li.continueTo)
				}
			} else if n := len(b.continues); n > 0 {
				b.edge(b.cur, b.continues[n-1])
			}
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		case token.FALLTHROUGH:
			if b.fallthroughTo != nil {
				b.edge(b.cur, b.fallthroughTo)
			}
		}
		b.cur = b.newBlock()

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock()
		then := b.newBlock()
		b.edge(cond, then)
		b.cur = then
		b.stmt(s.Body, nil)
		b.edge(b.cur, join)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cond, els)
			b.cur = els
			b.stmt(s.Else, nil)
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		body := b.newBlock()
		post := b.newBlock()
		join := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, join) // `for {}` has no normal exit
		}
		if label != nil {
			label.breakTo, label.continueTo = join, post
		}
		b.breaks = append(b.breaks, join)
		b.continues = append(b.continues, post)
		b.cur = body
		b.stmtList(s.Body.List)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.edge(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.add(s.Post)
		}
		b.edge(post, head)
		b.cur = join

	case *ast.RangeStmt:
		b.add(s.X)
		head := b.newBlock()
		b.edge(b.cur, head)
		// The RangeStmt node itself models the per-iteration key/value
		// assignment; analyzers treat s.Key/s.Value as assigned here.
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock()
		join := b.newBlock()
		b.edge(head, body)
		b.edge(head, join)
		if label != nil {
			label.breakTo, label.continueTo = join, head
		}
		b.breaks = append(b.breaks, join)
		b.continues = append(b.continues, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.edge(b.cur, head)
		b.cur = join

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, label, func(cc *ast.CaseClause) {
			for _, e := range cc.List {
				b.add(e) // case expressions evaluate in the head block
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label, func(*ast.CaseClause) {})

	case *ast.SelectStmt:
		head := b.cur
		if len(s.Body.List) == 0 {
			// select{} blocks forever: no successors, path ends here.
			b.cur = b.newBlock()
			return
		}
		join := b.newBlock()
		if label != nil {
			label.breakTo = join
		}
		b.breaks = append(b.breaks, join)
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			arm := b.newBlock()
			b.edge(head, arm)
			b.cur = arm
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edge(b.cur, join)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.cur = join

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && terminatesFlow(call) {
			b.cur = b.newBlock() // panic/os.Exit: no way out of this block
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt, ...
		b.add(s)
	}
}

// switchBody lowers the shared shape of switch and type-switch: head
// evaluates the dispatch, every case body is its own block, fallthrough
// chains to the next body, and a missing default adds a head→join edge.
func (b *builder) switchBody(body *ast.BlockStmt, label *labelInfo, headParts func(*ast.CaseClause)) {
	head := b.cur
	join := b.newBlock()
	if label != nil {
		label.breakTo = join
	}
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		headParts(cc)
		bodies[i] = b.newBlock()
		b.edge(head, bodies[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, join)
	}
	b.breaks = append(b.breaks, join)
	savedFall := b.fallthroughTo
	for i, cc := range clauses {
		if i+1 < len(bodies) {
			b.fallthroughTo = bodies[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		b.edge(b.cur, join)
	}
	b.fallthroughTo = savedFall
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

// terminatesFlow reports whether a call never returns: the panic
// builtin, os.Exit, runtime.Goexit, and the testing Fatal family are
// matched by name (the builder has no type information; shadowing these
// names is assumed not to happen in checked code).
func terminatesFlow(call *ast.CallExpr) bool {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			switch {
			case x.Name == "os" && fn.Sel.Name == "Exit":
				return true
			case x.Name == "runtime" && fn.Sel.Name == "Goexit":
				return true
			case fn.Sel.Name == "Fatal" || fn.Sel.Name == "Fatalf":
				// t.Fatal / log.Fatal: both stop this goroutine's flow.
				return true
			}
		}
	}
	return false
}

// String renders the graph for tests and debugging: one line per block
// with its nodes printed as source and its successor indexes.
func (g *Graph) String() string {
	return g.render(nil)
}

// StringFset is String with real positions resolved through fset (the
// printer needs no fset for shape, but tests read better with one).
func (g *Graph) StringFset(fset *token.FileSet) string {
	return g.render(fset)
}

func (g *Graph) render(fset *token.FileSet) string {
	if fset == nil {
		fset = token.NewFileSet()
	}
	var buf bytes.Buffer
	for _, blk := range g.Blocks {
		fmt.Fprintf(&buf, "b%d:", blk.Index)
		if blk == g.Exit {
			buf.WriteString(" <exit>")
		}
		for _, n := range blk.Nodes {
			var nb bytes.Buffer
			if rs, ok := n.(*ast.RangeStmt); ok {
				// Print only the header; the body is in other blocks.
				nb.WriteString("range-assign ")
				if rs.Key != nil {
					printer.Fprint(&nb, fset, rs.Key)
				}
				if rs.Value != nil {
					nb.WriteString(", ")
					printer.Fprint(&nb, fset, rs.Value)
				}
			} else {
				printer.Fprint(&nb, fset, n)
			}
			fmt.Fprintf(&buf, " {%s}", singleLine(nb.String()))
		}
		buf.WriteString(" ->")
		for _, s := range blk.Succs {
			fmt.Fprintf(&buf, " b%d", s.Index)
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}

func singleLine(s string) string {
	out := make([]byte, 0, len(s))
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\n' || c == '\t' || c == ' ' {
			space = true
			continue
		}
		if space && len(out) > 0 {
			out = append(out, ' ')
		}
		space = false
		out = append(out, c)
	}
	return string(out)
}
