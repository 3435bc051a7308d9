package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"ecsdns/internal/lint/flow"
)

// retentionCheck defends the dnswire buffer-reuse contract at its call
// sites: the bytes a reuse-codec call returns alias the caller-owned
// buffer, so they are valid only until the next repack of — or pool
// return of — that buffer. The analysis tracks slice-aliasing facts
// through assignments, struct fields, and slicing:
//
//	data, _ := msg.AppendPack((*bp)[:0])   // data aliases *bp
//	bufPool.Put(bp)                        // every alias of bp is now stale
//	use(data)                              // finding
//
// A "codec-shaped" call is one whose name follows the stdlib append
// convention (Append*, append*, pack, Pack) taking a []byte-like
// argument and returning a slice: its result is bound to the buffer's
// alias group and all previous aliases of that group go stale
// ("repacked"). pool.Put(buf) stales the group without rebinding.
// Reading a stale alias — including passing it along — is a finding;
// rebinding it first (the repack-in-a-loop idiom) is not.
//
// Only Config.RetentionPackages (the transport packages that call the
// codec) are analyzed; the codec package itself owns its internals.
var retentionCheck = Check{
	Name: "retention",
	Doc:  "alias into a reused codec buffer read after a subsequent repack or pool return",
	Run:  runRetention,
}

// rtKey names one tracked slice location: a variable, or a field
// chain rooted at one (h.b -> {h, ".b"}).
type rtKey struct {
	v    *types.Var
	path string
}

func (k rtKey) String() string {
	if k.v == nil {
		return "?"
	}
	return k.v.Name() + k.path
}

// rtBind records what buffer group a location aliases and whether the
// alias has gone stale (why, or "" while still valid).
type rtBind struct {
	group rtKey
	stale string
}

// rtFact maps tracked locations to their bindings; immutable.
type rtFact map[rtKey]rtBind

func rtEqual(a, b rtFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func rtJoin(a, b rtFact) rtFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(rtFact, len(a))
	for k, v := range a {
		out[k] = v
	}
	for k, bv := range b {
		av, ok := out[k]
		if !ok {
			out[k] = bv
			continue
		}
		if av.group != bv.group {
			delete(out, k) // conflicting bindings: unknown, stop tracking
			continue
		}
		if av.stale == "" {
			out[k] = bv // may-stale: stale on either path wins
		}
	}
	return out
}

type rtAnalyzer struct {
	ctx  *Context
	prog *flow.Program
}

func runRetention(ctx *Context) {
	if !pathListed(ctx.Cfg.RetentionPackages, ctx.Pkg.ImportPath) {
		return
	}
	a := &rtAnalyzer{ctx: ctx, prog: ctx.Pkg.Flow()}
	for _, fi := range a.prog.Funcs {
		if ctx.posInTestFile(fi.Body.Pos()) {
			continue
		}
		a.checkFunc(fi)
	}
}

func (a *rtAnalyzer) checkFunc(fi *flow.FuncInfo) {
	// Cheap pre-filter: without a codec call or a pool Put there is
	// nothing that can invalidate an alias.
	interesting := false
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, ok := a.codecCall(call); ok {
				interesting = true
			}
			if isPoolCall(a.ctx.Pkg.Info, call, "Put") {
				interesting = true
			}
		}
		return !interesting
	})
	if !interesting {
		return
	}

	g := fi.CFG()
	res := flow.Solve(g, flow.Analysis[rtFact]{
		Entry:     make(rtFact),
		Unreached: nil,
		Join:      rtJoin,
		Equal:     rtEqual,
		Transfer:  a.transfer,
	})
	for _, blk := range g.Blocks {
		for i, n := range blk.Nodes {
			if fact := res.Before(blk, i); len(fact) > 0 {
				a.reportStaleUses(n, fact)
			}
		}
	}
}

// transfer folds one CFG node into the alias facts: invalidations
// first (repacks, pool returns), then fresh bindings from
// assignments.
func (a *rtAnalyzer) transfer(n ast.Node, in rtFact) rtFact {
	if _, ok := n.(*ast.DeferStmt); ok {
		return in // runs at exit; aliases are not read after it anyway
	}
	info := a.ctx.Pkg.Info
	out := in
	cloned := false
	set := func(k rtKey, b rtBind) {
		if !cloned {
			out = make(rtFact, len(in)+1)
			for kk, vv := range in {
				out[kk] = vv
			}
			cloned = true
		}
		out[k] = b
	}
	unset := func(k rtKey) {
		if _, ok := out[k]; !ok {
			return
		}
		if !cloned {
			out = make(rtFact, len(in))
			for kk, vv := range in {
				out[kk] = vv
			}
			cloned = true
		}
		delete(out, k)
	}
	staleGroup := func(g rtKey, exempt rtKey, why string) {
		for k, b := range out {
			if b.group == g && k != exempt && b.stale == "" {
				set(k, rtBind{group: g, stale: why})
			}
		}
	}

	// Invalidations anywhere in the node.
	flow.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if bufArg, name, ok := a.codecCall(call); ok {
			if base := a.baseKey(bufArg); base.v != nil {
				staleGroup(a.groupOf(out, base), base, "repacked by "+name)
			}
		}
		if isPoolCall(info, call, "Put") && len(call.Args) == 1 {
			if base := a.baseKey(call.Args[0]); base.v != nil {
				staleGroup(a.groupOf(out, base), base, "returned to its pool")
			}
		}
		return true
	})

	// Fresh bindings from assignments.
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return out
	}
	bindFrom := func(lhs ast.Expr, rhs ast.Expr) {
		lk := a.exprKey(lhs)
		if lk.v == nil {
			return
		}
		if rhs == nil {
			unset(lk)
			return
		}
		if call, isCall := ast.Unparen(rhs).(*ast.CallExpr); isCall {
			if bufArg, _, isCodec := a.codecCall(call); isCodec {
				if base := a.baseKey(bufArg); base.v != nil {
					set(lk, rtBind{group: a.groupOf(out, base)})
					return
				}
			}
			if isBuiltinAppend(info, call) && len(call.Args) > 0 {
				if base := a.baseKey(call.Args[0]); base.v != nil {
					set(lk, rtBind{group: a.groupOf(out, base)})
					return
				}
			}
			unset(lk)
			return
		}
		if isSliceExprType(info, lhs) {
			if base := a.baseKey(rhs); base.v != nil && base != lk {
				set(lk, rtBind{group: a.groupOf(out, base)})
				return
			}
		}
		unset(lk)
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			bindFrom(lhs, as.Rhs[i])
		}
	} else if len(as.Rhs) == 1 {
		// Multi-value binding: a codec-shaped call binds each
		// slice-typed result; anything else clears the targets.
		call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		var group rtKey
		if isCall {
			if bufArg, _, isCodec := a.codecCall(call); isCodec {
				if base := a.baseKey(bufArg); base.v != nil {
					group = a.groupOf(out, base)
				}
			}
		}
		for _, lhs := range as.Lhs {
			lk := a.exprKey(lhs)
			if lk.v == nil {
				continue
			}
			if group.v != nil && isSliceExprType(info, lhs) {
				set(lk, rtBind{group: group})
			} else {
				unset(lk)
			}
		}
	}
	return out
}

// reportStaleUses flags reads of stale aliases in one node.
func (a *rtAnalyzer) reportStaleUses(n ast.Node, fact rtFact) {
	writes := make(map[ast.Expr]bool)
	if as, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			writes[lhs] = true
		}
	}
	flow.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		e, ok := m.(ast.Expr)
		if !ok {
			return true
		}
		if writes[e] {
			return false // assignment target, not a read
		}
		switch e.(type) {
		case *ast.SelectorExpr, *ast.Ident:
			k := a.exprKey(e)
			if k.v == nil {
				return true
			}
			if b, ok := fact[k]; ok && b.stale != "" {
				a.ctx.Reportf(e.Pos(),
					"%s aliases a reuse buffer that was since %s; copy the bytes out before the buffer is reused", k, b.stale)
				return false
			}
		}
		return true
	})
}

// codecCall matches a call following the append-into-buffer naming
// convention (Append*/append*/pack/Pack, excluding the builtin) that
// takes a slice argument and returns a slice. Returns the buffer
// argument and the callee name.
func (a *rtAnalyzer) codecCall(call *ast.CallExpr) (ast.Expr, string, bool) {
	info := a.ctx.Pkg.Info
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin {
			return nil, "", false
		}
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return nil, "", false
	}
	if !strings.HasPrefix(name, "Append") && !strings.HasPrefix(name, "append") &&
		name != "pack" && name != "Pack" {
		return nil, "", false
	}
	// A slice in, a slice out.
	var bufArg ast.Expr
	for _, arg := range call.Args {
		if t := typeOfExpr(info, arg); t != nil {
			if _, ok := t.Underlying().(*types.Slice); ok {
				bufArg = arg
				break
			}
		}
	}
	if bufArg == nil {
		return nil, "", false
	}
	rt, ok := info.Types[call]
	if !ok || rt.Type == nil {
		return nil, "", false
	}
	sliceResult := false
	switch t := rt.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if _, ok := t.At(i).Type().Underlying().(*types.Slice); ok {
				sliceResult = true
			}
		}
	default:
		_, sliceResult = t.Underlying().(*types.Slice)
	}
	if !sliceResult {
		return nil, "", false
	}
	return bufArg, name, true
}

// groupOf collapses alias-of-alias chains to the group root.
func (a *rtAnalyzer) groupOf(fact rtFact, k rtKey) rtKey {
	if b, ok := fact[k]; ok && b.group.v != nil {
		return b.group
	}
	return k
}

// baseKey resolves the buffer a slice expression views: unwrapping
// slicing, dereferences, and parens down to a variable or field chain.
func (a *rtAnalyzer) baseKey(e ast.Expr) rtKey {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return a.exprKey(e)
		}
	}
}

// exprKey renders an identifier or field chain as a tracked location.
func (a *rtAnalyzer) exprKey(e ast.Expr) rtKey {
	info := a.ctx.Pkg.Info
	var parts []string
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			var v *types.Var
			if u, ok := info.Uses[t].(*types.Var); ok {
				v = u
			} else if d, ok := info.Defs[t].(*types.Var); ok {
				v = d
			}
			if v == nil || v.IsField() {
				return rtKey{}
			}
			path := ""
			for i := len(parts) - 1; i >= 0; i-- {
				path += "." + parts[i]
			}
			return rtKey{v: v, path: path}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[t]; !ok || sel.Kind() != types.FieldVal {
				return rtKey{}
			}
			parts = append(parts, t.Sel.Name)
			e = t.X
		default:
			return rtKey{}
		}
	}
}

// isBuiltinAppend matches the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isSliceExprType reports whether e is slice-typed.
func isSliceExprType(info *types.Info, e ast.Expr) bool {
	t := typeOfExpr(info, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// isPoolCall matches `p.<method>(...)` where p is a sync.Pool or
// *sync.Pool.
func isPoolCall(info *types.Info, call *ast.CallExpr, method string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	t := typeOfExpr(info, sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// typeOfExpr resolves an expression's type, preferring the identifier's
// object (assignment left-hand sides are not always in Info.Types).
func typeOfExpr(info *types.Info, e ast.Expr) types.Type {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
