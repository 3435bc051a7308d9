package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ecsdns/internal/lint/flow"
)

// counterpartitionCheck statically defends accounting partitions like
// dnsserver's ServerStats invariant
//
//	Received = Answered + Shed + Slipped + Malformed + Panics
//
// A struct carrying such an invariant declares it in its doc comment:
//
//	//ecsinvariant:partition received = answered + shed + slipped + malformed + panics
//
// naming its own fields (the left-hand side is the intake counter, the
// right-hand side the outcome partition). Functions that classify one
// unit of intake register themselves with
//
//	//ecsinvariant:handler <StructType>
//
// and the check then proves, over each handler's control-flow graph,
// that EVERY exit path increments exactly one partition term exactly
// once — counting atomic Add calls on term fields, ++/+= on term fields
// (which must additionally happen while a mutex is held), and, through
// the call-graph summary layer, the increments of static callees. A
// path that skips the partition silently leaks intake out of the books;
// a path that double-counts breaks Balanced() for every chaos harness
// built on it.
//
// Deferred recover blocks get the obvious special case: increments
// inside a `if r := recover(); r != nil` region of a deferred literal
// belong to the panic exit path, which must also count exactly one term.
//
// A unit may also leave its goroutine unclassified, handed over a channel
// to one whose handler counts it. A function that does so registers with
//
//	//ecsinvariant:handoff <StructType>
//
// and is checked as a handler in which a channel send counts as the one
// term; its callers count a call to it as exactly one.
var counterpartitionCheck = Check{
	Name: "counterpartition",
	Doc:  "handler exit path increments zero or multiple terms of an //ecsinvariant:partition declaration",
	Run:  runCounterpartition,
}

const invariantPrefix = "//ecsinvariant:"

// invariant is one parsed struct annotation.
type invariant struct {
	structName string
	lhs        string
	terms      []string
	termVars   map[*types.Var]string // field object -> term name
	pos        token.Pos
}

// cpCount is the path-sensitive increment interval [min, max], with max
// saturating at 2 ("more than one").
type cpCount struct {
	min, max int
	bottom   bool
}

func (a cpCount) join(b cpCount) cpCount {
	if a.bottom {
		return b
	}
	if b.bottom {
		return a
	}
	return cpCount{min: minInt(a.min, b.min), max: maxInt(a.max, b.max)}
}

func (a cpCount) add(n cpCount) cpCount {
	if a.bottom || n.bottom {
		return a
	}
	return cpCount{min: minInt(2, a.min+n.min), max: minInt(2, a.max+n.max)}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func runCounterpartition(ctx *Context) {
	invs := ctx.parseInvariants()
	if len(invs) == 0 {
		return
	}
	prog := ctx.Pkg.Flow()
	summaries := make(map[*flow.FuncInfo]cpCount)

	// Hand-off functions are checked first: that stores their summaries,
	// counted with their sends, before any handler's call reads them.
	for _, verb := range []string{"handoff", "handler"} {
		for _, f := range ctx.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil || fd.Body == nil {
					continue
				}
				for _, cm := range fd.Doc.List {
					rest, ok := strings.CutPrefix(cm.Text, invariantPrefix+verb)
					if !ok {
						continue
					}
					name := strings.TrimSpace(rest)
					inv, ok := invs[name]
					if !ok {
						ctx.Reportf(cm.Pos(), "ecsinvariant:%s names %q, which carries no //ecsinvariant:partition annotation in this package", verb, name)
						continue
					}
					fi := prog.FuncOf(funcObj(ctx.Pkg, fd))
					if fi == nil {
						continue
					}
					ctx.checkHandler(prog, fi, inv, summaries, verb == "handoff")
				}
			}
		}
	}
}

// parseInvariants extracts and validates the struct annotations of the
// package.
func (c *Context) parseInvariants() map[string]*invariant {
	invs := make(map[string]*invariant)
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if doc == nil {
					continue
				}
				for _, cm := range doc.List {
					rest, ok := strings.CutPrefix(cm.Text, invariantPrefix)
					if !ok || strings.HasPrefix(rest, "handler") {
						continue
					}
					body, ok := strings.CutPrefix(rest, "partition")
					if !ok {
						c.Reportf(cm.Pos(), "unknown ecsinvariant verb on %s; expected //ecsinvariant:partition or //ecsinvariant:handler", ts.Name.Name)
						continue
					}
					if inv := c.parseInvariantLine(ts, cm, body); inv != nil {
						invs[inv.structName] = inv
					}
				}
			}
		}
	}
	return invs
}

// parseInvariantLine parses `<lhs> = <term> + <term> + ...` and binds
// the names to the struct's fields.
func (c *Context) parseInvariantLine(ts *ast.TypeSpec, cm *ast.Comment, rest string) *invariant {
	malformed := func(why string) *invariant {
		c.Reportf(cm.Pos(), "malformed ecsinvariant on %s (%s); expected //ecsinvariant:partition lhs = term + term + ...", ts.Name.Name, why)
		return nil
	}
	eq := strings.SplitN(rest, "=", 2)
	if len(eq) != 2 {
		return malformed("no '='")
	}
	lhs := strings.TrimSpace(eq[0])
	var terms []string
	for _, t := range strings.Split(eq[1], "+") {
		t = strings.TrimSpace(t)
		if t == "" {
			return malformed("empty term")
		}
		terms = append(terms, t)
	}
	if lhs == "" || len(terms) == 0 {
		return malformed("empty side")
	}

	obj, ok := c.Pkg.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return nil
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return malformed("not a struct")
	}
	fields := make(map[string]*types.Var, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i).Name()] = st.Field(i)
	}
	inv := &invariant{
		structName: ts.Name.Name,
		lhs:        lhs,
		terms:      terms,
		termVars:   make(map[*types.Var]string, len(terms)),
		pos:        cm.Pos(),
	}
	for _, name := range append([]string{lhs}, terms...) {
		if _, ok := fields[name]; !ok {
			return malformed("no field " + name)
		}
	}
	for _, name := range terms {
		inv.termVars[fields[name]] = name
	}
	return inv
}

// checkHandler verifies the exactly-one-term property on every exit
// path of fi, and validates the recover-guarded panic path of its
// deferred literals. For a hand-off function (sends) a channel send is
// a term, and its summary is stored for its callers.
func (c *Context) checkHandler(prog *flow.Program, fi *flow.FuncInfo, inv *invariant, summaries map[*flow.FuncInfo]cpCount, sends bool) {
	g := fi.CFG()
	res := c.solveCounts(prog, fi, inv, summaries, sends)
	if sends {
		summaries[fi] = exitJoin(fi, res)
	}

	// The mutex rule for non-atomic increments rides on the same CFG.
	lockRes := flow.Solve(g, lockAnalysis(c.Pkg))
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			c.checkBareIncrements(n, inv, lockRes.Before(blk, i))
		}
	}

	name := fi.Name()
	for _, blk := range g.ExitBlocks() {
		out := res.Out[blk]
		if out.bottom {
			continue // unreachable
		}
		pos := exitPos(fi, blk)
		if out.min == 0 {
			c.Reportf(pos, "an exit path of %s increments no %s partition term (%s); every outcome must be counted exactly once",
				name, inv.structName, strings.Join(inv.terms, "+"))
		}
		if out.max >= 2 {
			c.Reportf(pos, "an exit path of %s may increment multiple %s partition terms; each unit of %s must land in exactly one class",
				name, inv.structName, inv.lhs)
		}
	}

	// Panic path: increments inside recover-guarded deferred literals.
	for _, d := range g.Defers {
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && litCallsRecover(lit) {
			n := c.countDirectIncrements(lit.Body, inv)
			if n > 1 {
				c.Reportf(d.Pos(), "the recover path of %s increments %d %s partition terms; the panic exit must count exactly one", name, n, inv.structName)
			}
		}
	}
}

// solveCounts runs the increment-interval dataflow for fi, counting a
// channel send as a term when sends is set.
func (c *Context) solveCounts(prog *flow.Program, fi *flow.FuncInfo, inv *invariant, summaries map[*flow.FuncInfo]cpCount, sends bool) *flow.Result[cpCount] {
	analysis := flow.Analysis[cpCount]{
		Entry:     cpCount{},
		Unreached: cpCount{bottom: true},
		Join:      func(a, b cpCount) cpCount { return a.join(b) },
		Equal:     func(a, b cpCount) bool { return a == b },
		Transfer: func(n ast.Node, in cpCount) cpCount {
			return in.add(c.nodeIncrements(prog, n, inv, summaries, sends))
		},
	}
	return flow.Solve(fi.CFG(), analysis)
}

// exitJoin is the join of fi's exit-path counts: what a call to fi adds
// on its caller's path.
func exitJoin(fi *flow.FuncInfo, res *flow.Result[cpCount]) cpCount {
	out := cpCount{bottom: true}
	for _, blk := range fi.CFG().ExitBlocks() {
		out = out.join(res.Out[blk])
	}
	if out.bottom {
		out = cpCount{}
	}
	return out
}

// nodeIncrements computes the increment interval contributed by one CFG
// node: direct term increments (and sends, when they count) plus static
// callees' summaries.
func (c *Context) nodeIncrements(prog *flow.Program, n ast.Node, inv *invariant, summaries map[*flow.FuncInfo]cpCount, sends bool) cpCount {
	total := cpCount{}
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return total // runs at exit / elsewhere; recover paths are checked separately
	}
	flow.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if sends {
				total = total.add(cpCount{min: 1, max: 1})
			}
		case *ast.IncDecStmt:
			if x.Tok == token.INC && c.termOf(x.X, inv) != "" {
				total = total.add(cpCount{min: 1, max: 1})
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && c.termOf(x.Lhs[0], inv) != "" {
				total = total.add(cpCount{min: 1, max: 1})
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
				if c.termOf(sel.X, inv) != "" {
					total = total.add(cpCount{min: 1, max: 1})
					return true
				}
			}
			if callee := prog.StaticCallee(x); callee != nil {
				if target := prog.FuncOf(callee); target != nil {
					total = total.add(c.calleeSummary(prog, target, inv, summaries))
				}
			}
		}
		return true
	})
	return total
}

// calleeSummary memoizes the exit-interval of a callee: the join of its
// exit-path counts (a recovered panic path also returns through a normal
// exit as far as callers can see, and its own recover-block count is
// validated separately). Call cycles cut to [0,0].
func (c *Context) calleeSummary(prog *flow.Program, fi *flow.FuncInfo, inv *invariant, summaries map[*flow.FuncInfo]cpCount) cpCount {
	if v, ok := summaries[fi]; ok {
		return v
	}
	summaries[fi] = cpCount{} // cycle cut
	out := exitJoin(fi, c.solveCounts(prog, fi, inv, summaries, false))
	summaries[fi] = out
	return out
}

// checkBareIncrements enforces the mutex rule: a non-atomic ++/+= on a
// partition term must happen under a lock (atomic Adds need none).
func (c *Context) checkBareIncrements(n ast.Node, inv *invariant, held lockFacts) {
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	flow.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IncDecStmt:
			if x.Tok == token.INC {
				if term := c.termOf(x.X, inv); term != "" && len(held) == 0 {
					c.Reportf(x.Pos(), "partition term %s incremented without holding a mutex; use an atomic or lock the struct's mutex", term)
				}
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 {
				if term := c.termOf(x.Lhs[0], inv); term != "" && len(held) == 0 {
					c.Reportf(x.Pos(), "partition term %s incremented without holding a mutex; use an atomic or lock the struct's mutex", term)
				}
			}
		}
		return true
	})
}

// termOf resolves e to a partition term name when e selects one of the
// invariant struct's term fields (directly or at the end of a selector
// chain like s.stats.answered).
func (c *Context) termOf(e ast.Expr, inv *invariant) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	var obj types.Object
	if s, ok := c.Pkg.Info.Selections[sel]; ok {
		obj = s.Obj()
	} else {
		obj = c.Pkg.Info.Uses[sel.Sel]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return ""
	}
	return inv.termVars[v]
}

// countDirectIncrements counts term increments in a subtree (used for
// recover paths, where control flow is a single guarded region).
func (c *Context) countDirectIncrements(body ast.Node, inv *invariant) int {
	n := 0
	ast.Inspect(body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.IncDecStmt:
			if x.Tok == token.INC && c.termOf(x.X, inv) != "" {
				n++
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && c.termOf(x.Lhs[0], inv) != "" {
				n++
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" && c.termOf(sel.X, inv) != "" {
				n++
			}
		}
		return true
	})
	return n
}

// litCallsRecover reports whether the literal's body calls recover().
func litCallsRecover(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}

// exitPos picks the reporting position for an exit block: its last
// node, or the function's closing position for the fallthrough end.
func exitPos(fi *flow.FuncInfo, blk *flow.Block) token.Pos {
	if len(blk.Nodes) > 0 {
		return blk.Nodes[len(blk.Nodes)-1].Pos()
	}
	return fi.Body.Rbrace
}

// funcObj returns the types object of a declared function.
func funcObj(pkg *Package, fd *ast.FuncDecl) *types.Func {
	if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
		return obj
	}
	return nil
}
