package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"ecsdns/internal/lint/flow"
)

// chanprotocolCheck enforces channel ownership and close discipline in
// the concurrency-heavy packages. The rules mirror the "sender owns the
// channel" idiom the transports are built on:
//
//   - close by non-owner: a channel may be closed only by a function
//     that created it (contains the `make(chan ...)` assigned to the
//     same channel identity) or by a function named in an
//     //ecschan:owner annotation on the channel's declaration:
//
//     //ecschan:owner release
//     gate chan struct{}
//
//     Closing a channel received as a parameter is always flagged:
//     the receiving side never owns it.
//
//   - double close and send-on-possibly-closed: a forward may-closed
//     analysis over the function CFG; a second close, or a send, on a
//     path where the channel may already be closed panics at runtime.
//
//   - receive loops without an exit path: a receive reached only by
//     blocks that cannot reach the function's exit sits in an
//     inescapable loop — no ctx/Done case, no close-based range, no
//     breaking condition — so shutdown can never reclaim the
//     goroutine. Range-over-channel is exempt by construction (close
//     ends the loop).
//
// Test files are exempt: fault-injection harnesses close channels
// mid-flight on purpose, and their protocol is the test's business.
var chanprotocolCheck = Check{
	Name: "chanprotocol",
	Doc:  "channel close discipline (non-owner close, double close, send on closed) and receive loops with no exit path",
	Run:  runChanprotocol,
}

const chanPrefix = "//ecschan:"

// chanOwnership is the per-package ownership index.
type chanOwnership struct {
	owners   map[string][]string // channel class -> declared owner functions
	creators map[string][]string // channel class -> functions that make() it
	decls    map[string]bool     // declared function names in the package
}

func runChanprotocol(ctx *Context) {
	if !pathListed(ctx.Cfg.GoroutinePackages, basePath(ctx.Pkg.ImportPath)) {
		return
	}
	own := ctx.buildChanOwnership()
	prog := ctx.Pkg.Flow()

	for _, f := range ctx.Pkg.Files {
		if ctx.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctx.checkCloseOwnership(own, fd)
		}
	}
	for _, fi := range prog.Funcs {
		if ctx.posInTestFile(fi.Body.Pos()) {
			continue
		}
		ctx.checkClosedFlow(fi)
		ctx.checkReceiveExit(fi)
	}
}

// buildChanOwnership parses //ecschan:owner annotations and indexes the
// creating function of every channel identity in the package.
func (c *Context) buildChanOwnership() *chanOwnership {
	own := &chanOwnership{
		owners:   make(map[string][]string),
		creators: make(map[string][]string),
		decls:    make(map[string]bool),
	}
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				own.decls[fd.Name.Name] = true
			}
		}
	}

	consumed := make(map[*ast.Comment]bool)
	for _, f := range c.Pkg.Files {
		if c.isTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				c.parseChanDecl(own, d, consumed)
			case *ast.FuncDecl:
				if d.Body != nil {
					c.indexChanCreators(own, d)
				}
			}
		}
		// Any //ecschan: comment not consumed by a channel declaration is
		// dangling: the grammar only attaches to fields and vars.
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				if strings.HasPrefix(cm.Text, chanPrefix) && !consumed[cm] {
					c.Reportf(cm.Pos(), "//ecschan:owner must be attached to a channel-typed struct field or package var declaration")
				}
			}
		}
	}
	return own
}

// parseChanDecl reads owner annotations off struct fields and var specs.
func (c *Context) parseChanDecl(own *chanOwnership, gd *ast.GenDecl, consumed map[*ast.Comment]bool) {
	for _, spec := range gd.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			st, ok := s.Type.(*ast.StructType)
			if !ok {
				continue
			}
			obj, ok := c.Pkg.Info.Defs[s.Name].(*types.TypeName)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					for _, name := range field.Names {
						c.parseOwnerComments(own, cg, consumed,
							chanFieldClass(obj, name.Name), c.Pkg.Info.Defs[name])
					}
				}
			}
		case *ast.ValueSpec:
			for _, cg := range []*ast.CommentGroup{gd.Doc, s.Doc, s.Comment} {
				for _, name := range s.Names {
					obj := c.Pkg.Info.Defs[name]
					if obj == nil {
						continue
					}
					c.parseOwnerComments(own, cg, consumed,
						obj.Pkg().Path()+"."+obj.Name(), obj)
				}
			}
		}
	}
}

// parseOwnerComments validates one comment group's //ecschan directives
// against the declared object and records the owner list under class.
func (c *Context) parseOwnerComments(own *chanOwnership, cg *ast.CommentGroup, consumed map[*ast.Comment]bool, class string, obj types.Object) {
	if cg == nil {
		return
	}
	for _, cm := range cg.List {
		rest, ok := strings.CutPrefix(cm.Text, chanPrefix)
		if !ok {
			continue
		}
		consumed[cm] = true
		names, ok := strings.CutPrefix(rest, "owner")
		if !ok {
			verb, _, _ := strings.Cut(rest, " ")
			c.Reportf(cm.Pos(), "unknown ecschan verb %q; expected //ecschan:owner <func>[,<func>...]", verb)
			continue
		}
		if obj == nil || !isChanType(obj.Type()) {
			c.Reportf(cm.Pos(), "//ecschan:owner on %s, which is not a channel", obj.Name())
			continue
		}
		var list []string
		for _, n := range strings.Split(strings.TrimSpace(names), ",") {
			if n = strings.TrimSpace(n); n != "" {
				list = append(list, n)
			}
		}
		if len(list) == 0 {
			c.Reportf(cm.Pos(), "//ecschan:owner needs at least one function name")
			continue
		}
		for _, n := range list {
			if !own.decls[n] {
				c.Reportf(cm.Pos(), "//ecschan:owner names %s, which is not declared in this package", n)
			}
		}
		own.owners[class] = append(own.owners[class], list...)
	}
}

// chanFieldClass is the cross-function identity of a struct field
// channel, matching lockClass's `pkg.Type.field` form.
func chanFieldClass(owner *types.TypeName, field string) string {
	if owner.Pkg() != nil {
		return owner.Pkg().Path() + "." + owner.Name() + "." + field
	}
	return owner.Name() + "." + field
}

// indexChanCreators records fd as the creating function of every channel
// identity it makes: `x = make(chan ...)` assignments, var initializers,
// and keyed struct-literal fields.
func (c *Context) indexChanCreators(own *chanOwnership, fd *ast.FuncDecl) {
	record := func(class string) {
		for _, n := range own.creators[class] {
			if n == fd.Name.Name {
				return
			}
		}
		own.creators[class] = append(own.creators[class], fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			if len(t.Lhs) != len(t.Rhs) {
				return true
			}
			for i, rhs := range t.Rhs {
				if isMakeChan(c.Pkg, rhs) {
					record(lockClass(c.Pkg, t.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			for i, v := range t.Values {
				if isMakeChan(c.Pkg, v) && i < len(t.Names) {
					record(lockClass(c.Pkg, t.Names[i]))
				}
			}
		case *ast.CompositeLit:
			tv, ok := c.Pkg.Info.Types[ast.Expr(t)]
			if !ok {
				return true
			}
			named, ok := derefNamed(tv.Type)
			if !ok {
				return true
			}
			for _, el := range t.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if ok && isMakeChan(c.Pkg, kv.Value) {
					record(chanFieldClass(named.Obj(), key.Name))
				}
			}
		}
		return true
	})
}

// isMakeChan reports whether e is a make() of a channel type.
func isMakeChan(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	tv, ok := pkg.Info.Types[ast.Expr(call)]
	return ok && isChanType(tv.Type)
}

func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// checkCloseOwnership validates every close() in fd (including inside
// its function literals, which inherit the declaring function's
// ownership) against the declared-or-inferred owner.
func (c *Context) checkCloseOwnership(own *chanOwnership, fd *ast.FuncDecl) {
	params := paramVars(c.Pkg, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call := closeCall(c.Pkg, n)
		if call == nil {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		class := lockClass(c.Pkg, arg)
		name := fd.Name.Name

		if owners, ok := own.owners[class]; ok {
			for _, o := range owners {
				if o == name {
					return true
				}
			}
			c.Reportf(call.Pos(), "close of %s in %s, which is not a declared owner (//ecschan:owner %s)",
				exprString(c.Pkg.Fset, arg), name, strings.Join(owners, ","))
			return true
		}
		if id, ok := arg.(*ast.Ident); ok {
			if v, ok := c.Pkg.Info.Uses[id].(*types.Var); ok && params[v] {
				// A send-only parameter (`done chan<- struct{}`) is the
				// sender side: closing it to signal completion is exactly
				// the ownership the direction declares. Any other channel
				// parameter is the receiving side, which never owns it.
				if ch, ok := v.Type().Underlying().(*types.Chan); ok && ch.Dir() != types.SendOnly {
					c.Reportf(call.Pos(), "close of parameter channel %s: the receiving side never owns a channel it was handed; close where it was made, or declare //ecschan:owner", id.Name)
				}
				return true
			}
		}
		creators := own.creators[class]
		for _, o := range creators {
			if o == name {
				return true
			}
		}
		if len(creators) > 0 {
			sort.Strings(creators)
			c.Reportf(call.Pos(), "close of %s in %s, but it is created in %s; only the creating function may close it (or declare //ecschan:owner %s)",
				exprString(c.Pkg.Fset, arg), name, strings.Join(creators, ","), name)
		}
		return true
	})
}

// paramVars collects the parameter objects of fd and of every function
// literal nested in it (a literal closing its own parameter is the same
// receiver-side close).
func paramVars(pkg *Package, fd *ast.FuncDecl) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					out[v] = true
				}
			}
		}
	}
	addFields(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addFields(lit.Type.Params)
		}
		return true
	})
	return out
}

// closeCall returns the close(ch) call when n is a statement-level
// close, nil otherwise.
func closeCall(pkg *Package, n ast.Node) *ast.CallExpr {
	var call *ast.CallExpr
	switch t := n.(type) {
	case *ast.ExprStmt:
		call, _ = t.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = t.Call
	}
	if call == nil || len(call.Args) != 1 {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
		return nil
	}
	return call
}

// closedFacts is the may-closed lattice: intra-function channel key ->
// earliest close position on any path.
type closedFacts map[string]token.Pos

// checkClosedFlow runs the may-closed forward analysis over one
// function and reports double closes and sends on possibly-closed
// channels. Deferred closes run at exit and cannot precede any node in
// the body, so only statement-level closes generate facts.
func (c *Context) checkClosedFlow(fi *flow.FuncInfo) {
	g := fi.CFG()
	analysis := flow.Analysis[closedFacts]{
		Entry:     closedFacts{},
		Unreached: closedFacts{},
		Join: func(a, b closedFacts) closedFacts {
			if len(b) == 0 {
				return a
			}
			if len(a) == 0 {
				return b
			}
			out := make(closedFacts, len(a))
			for k, v := range a {
				out[k] = v
			}
			for k, v := range b {
				if cur, ok := out[k]; !ok || v < cur {
					out[k] = v
				}
			}
			return out
		},
		Equal: func(a, b closedFacts) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				if w, ok := b[k]; !ok || w != v {
					return false
				}
			}
			return true
		},
		Transfer: func(n ast.Node, in closedFacts) closedFacts {
			st, ok := n.(*ast.ExprStmt)
			if !ok {
				return in
			}
			call := closeCall(c.Pkg, st)
			if call == nil {
				return in
			}
			out := make(closedFacts, len(in)+1)
			for k, v := range in {
				out[k] = v
			}
			key := exprString(c.Pkg.Fset, ast.Unparen(call.Args[0]))
			if _, done := out[key]; !done {
				out[key] = call.Pos()
			}
			return out
		},
	}
	res := flow.Solve(g, analysis)

	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			facts := res.Before(blk, i)
			if len(facts) == 0 {
				continue
			}
			if st, ok := n.(*ast.ExprStmt); ok {
				if call := closeCall(c.Pkg, st); call != nil {
					key := exprString(c.Pkg.Fset, ast.Unparen(call.Args[0]))
					// A close reaching itself around a loop back edge is
					// normally a fresh channel per iteration (`for _, s :=
					// range conns { close(c.done) }`), not a double close.
					if p, closed := facts[key]; closed && p != call.Pos() {
						c.Reportf(call.Pos(), "%s may already be closed on this path: double close panics", key)
					}
					continue
				}
			}
			send := sendStmtOf(n)
			if send == nil {
				continue
			}
			key := exprString(c.Pkg.Fset, ast.Unparen(send.Chan))
			if _, closed := facts[key]; closed {
				c.Reportf(send.Pos(), "send on %s after a close on this path: send on closed channel panics", key)
			}
		}
	}
}

// sendStmtOf unwraps a CFG node to its channel send, if it is one.
func sendStmtOf(n ast.Node) *ast.SendStmt {
	switch t := n.(type) {
	case *ast.SendStmt:
		return t
	case *flow.CommNode:
		if s, ok := t.Comm.(*ast.SendStmt); ok {
			return s
		}
	}
	return nil
}

// checkReceiveExit flags channel receives in blocks that cannot reach
// the function's exit: the goroutine parked there can never be
// reclaimed by shutdown.
func (c *Context) checkReceiveExit(fi *flow.FuncInfo) {
	g := fi.CFG()
	live := g.ReachableFromEntry()
	canExit := g.CanReachExit()
	for _, blk := range g.Blocks {
		if !live[blk] || canExit[blk] {
			continue
		}
		for _, n := range blk.Nodes {
			flow.Inspect(n, func(m ast.Node) bool {
				switch x := m.(type) {
				case *ast.FuncLit:
					return false // separate function, analyzed on its own
				case *ast.UnaryExpr:
					if x.Op == token.ARROW {
						c.Reportf(x.Pos(), "receive in a loop with no exit path: no close-based range, ctx/Done case, or breaking condition ever frees this goroutine")
					}
				}
				return true
			})
		}
	}
}
