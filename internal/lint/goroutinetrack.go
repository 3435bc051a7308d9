package lint

import (
	"go/ast"
	"go/types"

	"ecsdns/internal/lint/flow"
)

// goroutinetrackCheck verifies goroutine lifecycle in the
// concurrency-heavy packages, built on the flow engine's spawn index.
// Two rules:
//
//   - tracked-or-cancellable: PR 1's Add-after-Wait race came from a
//     request goroutine spawned with no lifecycle tie to its server:
//     Close could start waiting while spawns kept coming. A goroutine
//     literal must either be tied to a tracker — a call to a
//     sync.WaitGroup method (Add/Done/Wait) or to a method/function
//     named "track" — or be cancellable by referencing a
//     context.Context. Named-function goroutines (`go s.serveUDP(pc)`)
//     are exempt from this rule: their tracking is the caller's visible
//     responsibility (s.loops.Add before the spawn).
//
//   - leak path: every spawned function whose body this package can
//     see (a literal, or a declared in-package function) must have a
//     provable exit path — some route from entry to the function's
//     exit. A body whose reachable blocks all sit in an inescapable
//     loop (`for {}` with no break/return, `select` with no
//     terminating case) is a permanent goroutine leak: tracked or not,
//     Close blocks on it forever. A literal that wraps a declared
//     function (`go func() { defer wg.Done(); s.worker() }()`) is
//     followed one call deep, so the wrapper does not hide the worker's
//     loop. Applies outside test files.
var goroutinetrackCheck = Check{
	Name: "goroutinetrack",
	Doc:  "untracked `go func` literal (no WaitGroup/tracker call, no context.Context), or spawned function with no exit path",
	Run:  runGoroutinetrack,
}

func runGoroutinetrack(ctx *Context) {
	if !pathListed(ctx.Cfg.GoroutinePackages, basePath(ctx.Pkg.ImportPath)) {
		return
	}
	prog := ctx.Pkg.Flow()
	for _, site := range prog.Spawns {
		if lit, ok := site.Go.Call.Fun.(*ast.FuncLit); ok {
			if !ctx.goroutineTracked(lit, site.Go.Call.Args) {
				ctx.Reportf(site.Go.Pos(),
					"go func literal is neither tracked (WaitGroup/track call) nor cancellable (no context.Context); Close-time races like PR 1's Add-after-Wait start here")
			}
		}
		if site.Callee == nil || ctx.posInTestFile(site.Go.Pos()) {
			continue
		}
		if stuck := neverReturns(prog, site.Callee); stuck != nil {
			ctx.Reportf(site.Go.Pos(),
				"goroutine spawned here can never terminate: no path in %s reaches the function's exit — give its loop a ctx/Done case, a close-based range, or a breaking condition", stuck.Name())
		}
	}
}

// neverReturns names the function that keeps a goroutine started on f
// from ever terminating: f itself when its exit is unreachable, or, for
// a literal, an in-package function one of its top-level statements
// calls unconditionally. Nil when an exit path exists.
func neverReturns(prog *flow.Program, f *flow.FuncInfo) *flow.FuncInfo {
	if !f.CFG().ExitReachable() {
		return f
	}
	if f.Lit == nil {
		return nil
	}
	for _, st := range f.Body.List {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if callee := prog.FuncOf(prog.StaticCallee(call)); callee != nil && !callee.CFG().ExitReachable() {
			return callee
		}
	}
	return nil
}

// goroutineTracked reports whether the literal (or the arguments passed
// to it) ties the goroutine to a tracker or a context.
func (c *Context) goroutineTracked(lit *ast.FuncLit, args []ast.Expr) bool {
	tracked := false
	scan := func(n ast.Node) bool {
		if tracked {
			return false
		}
		switch e := n.(type) {
		case *ast.Ident:
			if tv, ok := c.Pkg.Info.Types[ast.Expr(e)]; ok && isContextType(tv.Type) {
				tracked = true
				return false
			}
		case *ast.CallExpr:
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				if fn, ok := c.Pkg.Info.Uses[sel.Sel].(*types.Func); ok {
					if isWaitGroupMethod(fn) || fn.Name() == "track" {
						tracked = true
						return false
					}
				}
			} else if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "track" {
				tracked = true
				return false
			}
		}
		return true
	}
	ast.Inspect(lit.Body, scan)
	for _, a := range args {
		ast.Inspect(a, scan)
	}
	// Parameters typed context.Context count as received cancellation.
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			if tv, ok := c.Pkg.Info.Types[field.Type]; ok && isContextType(tv.Type) {
				tracked = true
			}
		}
	}
	return tracked
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isWaitGroupMethod(fn *types.Func) bool {
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
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
