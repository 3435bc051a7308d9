package lint

import (
	"go/ast"
	"go/types"
)

// goroutinetrackCheck verifies goroutine lifecycle in the
// concurrency-heavy packages, at every go statement. The server's first
// Add-after-Wait race came from a request goroutine
// spawned with no lifecycle tie to its server: Close could start waiting
// while spawns kept coming. A goroutine literal must therefore either be tied to a
// tracker — a call to a sync.WaitGroup method (Add/Done/Wait) or to a
// method/function named "track" — or be cancellable by referencing a
// context.Context. Named-function goroutines (`go s.serveUDP(pc)`) are
// exempt: their tracking is the caller's visible responsibility
// (s.loops.Add before the spawn).
var goroutinetrackCheck = Check{
	Name: "goroutinetrack",
	Doc:  "untracked `go func` literal (no WaitGroup/tracker call, no context.Context)",
	Run:  runGoroutinetrack,
}

func runGoroutinetrack(ctx *Context) {
	if !pathListed(ctx.Cfg.GoroutinePackages, basePath(ctx.Pkg.ImportPath)) {
		return
	}
	for _, f := range ctx.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok && !ctx.goroutineTracked(lit, g.Call.Args) {
				ctx.Reportf(g.Pos(),
					"go func literal is neither tracked (WaitGroup/track call) nor cancellable (no context.Context); Close can start waiting while such spawns keep coming (Add after Wait)")
			}
			return true
		})
	}
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
