package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"ecsdns/internal/lint/flow"
)

// mutexholdCheck flags blocking operations executed while a sync.Mutex
// or sync.RWMutex may be held: channel sends/receives, selects without a
// default, time.Sleep/time.After, and Read/Write-family calls on
// net.Conn-like values. A blocked holder stalls every other goroutine
// contending for the lock — in a transport read loop that is a
// whole-pipeline deadlock waiting for one slow peer.
//
// The analysis is flow-sensitive: it solves a may-held-locks dataflow
// problem over each function's control-flow graph (internal/lint/flow),
// so branch-dependent locking is modeled exactly — an early
// `mu.Unlock(); return` arm no longer masks the held set on the path
// that falls through, and a lock taken in only one branch does not
// taint the join point after both branches release it.
var mutexholdCheck = Check{
	Name: "mutexhold",
	Doc:  "blocking call (channel op, select, Sleep, conn I/O) while a mutex may be held",
	Run:  runMutexhold,
}

func runMutexhold(ctx *Context) {
	prog := ctx.Pkg.Flow()
	for _, fi := range prog.Funcs {
		g := fi.CFG()
		res := flow.Solve(g, lockAnalysis(ctx.Pkg))
		for _, blk := range g.Blocks {
			for i, n := range blk.Nodes {
				held := res.Before(blk, i)
				if len(held) > 0 {
					ctx.scanNodeBlocking(n, held)
				}
			}
		}
	}
}

// scanNodeBlocking reports blocking operations in one CFG node reached
// with a non-empty held set.
func (c *Context) scanNodeBlocking(n ast.Node, held lockFacts) {
	switch x := n.(type) {
	case *flow.SelectHead:
		if !selectHasDefault(x.Stmt) {
			c.blockingOp(x.Stmt.Pos(), "select", held)
		}
		return
	case *flow.CommNode:
		// The blocking decision belongs to the SelectHead; the comm
		// statement itself (send or receive) must not be re-reported.
		return
	case *flow.RangeHead:
		if tv, ok := c.Pkg.Info.Types[x.Stmt.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.blockingOp(x.Stmt.Pos(), "range over channel", held)
			}
		}
		c.scanExprBlocking(x.Stmt.X, held)
		return
	case *ast.SendStmt:
		c.blockingOp(x.Pos(), "channel send", held)
		c.scanExprBlocking(x.Value, held)
		return
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred calls run at return; goroutine bodies run elsewhere.
		return
	}
	// Simple statements and control expressions: look for receives and
	// blocking calls in the evaluated expressions.
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false // runs later, outside this lock region
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				c.blockingOp(x.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			c.scanBlockingCall(x, held)
		}
		return true
	})
}

// scanExprBlocking reports receives and blocking calls inside one
// expression.
func (c *Context) scanExprBlocking(e ast.Expr, held lockFacts) {
	if e == nil {
		return
	}
	c.scanNodeBlocking(e, held)
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

func (c *Context) scanBlockingCall(call *ast.CallExpr, held lockFacts) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := c.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Package-level time.Sleep/time.After only — time.Time.After (the
	// comparison method) shares the name but blocks nothing.
	if isPkgFunc(fn, "time") && (fn.Name() == "Sleep" || fn.Name() == "After") {
		c.blockingOp(call.Pos(), "time."+fn.Name(), held)
		return
	}
	// I/O methods on net.Conn / net.PacketConn / net.Listener values.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	switch fn.Name() {
	case "Read", "Write", "ReadFrom", "WriteTo", "ReadFromUDP", "WriteToUDP", "Accept":
	default:
		return
	}
	if tv, ok := c.Pkg.Info.Types[sel.X]; ok && isNetConnLike(tv.Type) {
		c.blockingOp(call.Pos(), "network I/O ("+fn.Name()+")", held)
	}
}

// isNetConnLike reports whether t implements one of the net package's
// blocking endpoint interfaces.
func isNetConnLike(t types.Type) bool {
	for _, name := range []string{"Conn", "PacketConn", "Listener"} {
		if iface := netInterface(t, name); iface != nil && types.Implements(t, iface) {
			return true
		}
	}
	return false
}

// netInterface digs the named net interface type out of t's import
// graph; it returns nil when t's package never touches net.
func netInterface(t types.Type, name string) *types.Interface {
	named, ok := derefNamed(t)
	if !ok || named.Obj().Pkg() == nil {
		return nil
	}
	var netPkg *types.Package
	seen := make(map[*types.Package]bool)
	var find func(p *types.Package)
	find = func(p *types.Package) {
		if netPkg != nil || seen[p] {
			return
		}
		seen[p] = true
		if p.Path() == "net" {
			netPkg = p
			return
		}
		for _, imp := range p.Imports() {
			find(imp)
		}
	}
	find(named.Obj().Pkg())
	if netPkg == nil {
		return nil
	}
	obj := netPkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

func isSyncLockMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func (c *Context) blockingOp(pos token.Pos, what string, held lockFacts) {
	if len(held) == 0 {
		return
	}
	// Report against one deterministic lock key.
	key := held.sortedKeys()[0]
	ctxPos := c.Pkg.Fset.Position(held[key])
	c.Reportf(pos, "%s while holding %s.Lock() (locked at line %d); release the lock before blocking",
		what, key, ctxPos.Line)
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}
