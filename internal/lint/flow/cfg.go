// Package flow is the analysis core under ecslint's flow-sensitive
// checks: per-function control-flow graphs over Go's statement and
// branch structure (cfg.go), a generic forward dataflow solver that
// iterates gen/kill-style transfer functions to a fixpoint over the CFG
// (solve.go), and a call-graph summary layer that lets per-function
// facts propagate across static call sites (callgraph.go).
//
// The package is stdlib-only (go/ast + go/types), mirroring the loader
// in internal/lint, and is deliberately independent of any particular
// check: it knows nothing about mutexes, contexts, or ECS options.
// Checks define a lattice and a transfer function; flow supplies
// reachability, joins, and iteration order.
package flow

import (
	"go/ast"
	"go/token"
)

// Graph is the control-flow graph of one function body. Blocks hold
// straight-line sequences of nodes; edges represent possible transfers
// of control. Entry has no predecessors; every return statement and the
// fallthrough end of the body lead to Exit, which holds no nodes. A
// defer statement is a node where it appears; the deferred call's
// execution at exit is not modeled.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block // every block, in creation (roughly source) order
}

// Block is one straight-line CFG node: its Nodes execute in order, then
// control moves to one of Succs (none for Exit and for blocks that end
// the function).
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block

	// unreachable marks blocks synthesized after a terminating statement
	// (return, goto, break) so the solver can skip them when they gather
	// no incoming edges.
	unreachable bool
}

// The builder wraps compound statements' control points in marker nodes
// so clients can tell evaluation contexts apart without re-walking
// statement internals (which live in other blocks).

// RangeHead marks the evaluation of a range statement's operand: the
// point where `for range ch` may block on a channel.
type RangeHead struct{ Stmt *ast.RangeStmt }

// Pos implements ast.Node.
func (r *RangeHead) Pos() token.Pos { return r.Stmt.Pos() }

// End implements ast.Node.
func (r *RangeHead) End() token.Pos { return r.Stmt.X.End() }

// SelectHead marks arrival at a select statement, before any case
// commits. Comm statements of the individual cases appear in their case
// blocks wrapped in CommNode.
type SelectHead struct{ Stmt *ast.SelectStmt }

// Pos implements ast.Node.
func (s *SelectHead) Pos() token.Pos { return s.Stmt.Pos() }

// End implements ast.Node.
func (s *SelectHead) End() token.Pos { return s.Stmt.Pos() + 6 }

// CommNode wraps one select case's communication statement. The
// blocking decision belongs to the SelectHead; CommNode exists so
// assignments in `case v := <-ch:` still reach transfer functions.
type CommNode struct {
	Select *ast.SelectStmt
	Comm   ast.Stmt // nil for default
}

// Pos implements ast.Node.
func (c *CommNode) Pos() token.Pos { return c.Comm.Pos() }

// End implements ast.Node.
func (c *CommNode) End() token.Pos { return c.Comm.End() }

// Inspect is ast.Inspect for CFG nodes: the marker wrappers above are
// not part of Go's AST (ast.Walk panics on them), so they are unwrapped
// to exactly the source they represent — the range operand for a
// RangeHead, the communication statement for a CommNode, nothing for a
// SelectHead (its comms appear as CommNodes in their case blocks).
func Inspect(n ast.Node, fn func(ast.Node) bool) {
	switch x := n.(type) {
	case *RangeHead:
		ast.Inspect(x.Stmt.X, fn)
	case *SelectHead:
	case *CommNode:
		ast.Inspect(x.Comm, fn)
	default:
		ast.Inspect(n, fn)
	}
}

// Build constructs the CFG for one function body. It handles if/else,
// for (incl. range), switch/type switch (incl. fallthrough), select,
// labeled break/continue/goto, and treats panics and runtime traps as
// out of scope (they do not produce Exit edges).
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{
		g: &Graph{},
	}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Fallthrough off the end of the body reaches Exit.
	b.edge(b.cur, b.g.Exit)
	b.resolveGotos()
	return b.g
}

type loopFrame struct {
	label         string
	brk, cont     *Block
	isSwitchOrSel bool // break applies, continue does not
}

type builder struct {
	g     *Graph
	cur   *Block
	loops []loopFrame

	labeled map[string]*Block // label -> block started at label (goto target)
	gotos   []pendingGoto     // forward gotos patched at the end
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startUnreachable begins a fresh block with no predecessors, used after
// a terminating statement so trailing dead code still parses into the
// graph without edges.
func (b *builder) startUnreachable() {
	blk := b.newBlock()
	blk.unreachable = true
	b.cur = blk
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
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt lowers one statement. label is the pending label when the
// statement is the body of a LabeledStmt (so `break L` / `continue L`
// resolve).
func (b *builder) stmt(s ast.Stmt, label string) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		b.stmtList(st.List)
	case *ast.LabeledStmt:
		// Start a fresh block so goto targets are block boundaries.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		if b.labeled == nil {
			b.labeled = make(map[string]*Block)
		}
		b.labeled[st.Label.Name] = target
		b.stmt(st.Stmt, st.Label.Name)
	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.cur, b.g.Exit)
		b.startUnreachable()
	case *ast.BranchStmt:
		b.branch(st)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st, label)
	case *ast.RangeStmt:
		b.rangeStmt(st, label)
	case *ast.SwitchStmt:
		b.switchStmt(st, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(st, label)
	case *ast.SelectStmt:
		b.selectStmt(st, label)
	default:
		// Simple statements: expr, assign, incdec, send, decl, go, defer,
		// empty.
		b.add(st)
	}
}

func (b *builder) branch(st *ast.BranchStmt) {
	switch st.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if st.Label == nil || f.label == st.Label.Name {
				b.edge(b.cur, f.brk)
				b.startUnreachable()
				return
			}
		}
		b.startUnreachable()
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if f.isSwitchOrSel {
				continue
			}
			if st.Label == nil || f.label == st.Label.Name {
				b.edge(b.cur, f.cont)
				b.startUnreachable()
				return
			}
		}
		b.startUnreachable()
	case token.GOTO:
		if st.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: st.Label.Name})
		}
		b.startUnreachable()
	case token.FALLTHROUGH:
		// Handled by switchStmt via clause ordering; as a statement it
		// terminates the clause.
	}
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if target, ok := b.labeled[g.label]; ok {
			b.edge(g.from, target)
		}
	}
}

func (b *builder) ifStmt(st *ast.IfStmt) {
	if st.Init != nil {
		b.stmt(st.Init, "")
	}
	b.add(st.Cond)
	condBlk := b.cur

	thenBlk := b.newBlock()
	b.edge(condBlk, thenBlk)
	b.cur = thenBlk
	b.stmtList(st.Body.List)
	thenEnd := b.cur

	after := b.newBlock()
	if st.Else != nil {
		elseBlk := b.newBlock()
		b.edge(condBlk, elseBlk)
		b.cur = elseBlk
		b.stmt(st.Else, "")
		b.edge(b.cur, after)
	} else {
		b.edge(condBlk, after)
	}
	b.edge(thenEnd, after)
	b.cur = after
}

func (b *builder) forStmt(st *ast.ForStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init, "")
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if st.Cond != nil {
		b.add(st.Cond)
	}

	after := b.newBlock()
	post := b.newBlock()
	body := b.newBlock()
	b.edge(head, body)
	if st.Cond != nil {
		b.edge(head, after) // condition may fail
	}

	b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: post})
	b.cur = body
	b.stmtList(st.Body.List)
	b.edge(b.cur, post)
	b.loops = b.loops[:len(b.loops)-1]

	b.cur = post
	if st.Post != nil {
		b.stmt(st.Post, "")
	}
	b.edge(b.cur, head)
	b.cur = after
}

func (b *builder) rangeStmt(st *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	b.add(&RangeHead{Stmt: st})

	after := b.newBlock()
	body := b.newBlock()
	b.edge(head, body)
	b.edge(head, after) // empty range

	b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: head})
	b.cur = body
	b.stmtList(st.Body.List)
	b.edge(b.cur, head)
	b.loops = b.loops[:len(b.loops)-1]

	b.cur = after
}

func (b *builder) switchStmt(st *ast.SwitchStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init, "")
	}
	if st.Tag != nil {
		b.add(st.Tag)
	}
	head := b.cur
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: after, isSwitchOrSel: true})

	var clauses []*ast.CaseClause
	for _, cl := range st.Body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			// Case expressions are evaluated at the head.
			head.Nodes = append(head.Nodes, e)
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		fallsThrough := false
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(s, "")
		}
		if fallsThrough && i+1 < len(blocks) {
			b.edge(b.cur, blocks[i+1])
			b.startUnreachable()
		}
		b.edge(b.cur, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *builder) typeSwitchStmt(st *ast.TypeSwitchStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init, "")
	}
	b.stmt(st.Assign, "")
	head := b.cur
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: after, isSwitchOrSel: true})

	hasDefault := false
	for _, cl := range st.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	if !hasDefault {
		b.edge(head, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *builder) selectStmt(st *ast.SelectStmt, label string) {
	b.add(&SelectHead{Stmt: st})
	head := b.cur
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: after, isSwitchOrSel: true})

	for _, cl := range st.Body.List {
		comm, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		if comm.Comm != nil {
			b.add(&CommNode{Select: st, Comm: comm.Comm})
		}
		b.stmtList(comm.Body)
		b.edge(b.cur, after)
	}
	if len(st.Body.List) == 0 {
		// `select {}` blocks forever: no edge to after.
		after.unreachable = true
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

// Preds returns the predecessor map of g, computed on demand.
func (g *Graph) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(g.Blocks))
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			preds[s] = append(preds[s], blk)
		}
	}
	return preds
}
