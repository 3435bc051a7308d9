package flow

import (
	"go/ast"
	"go/types"
	"sync"
)

// FuncInfo is one analyzable function: a declaration or a function
// literal, with its lazily-built CFG.
type FuncInfo struct {
	// Decl is set for declared functions; Lit for literals. Exactly one
	// is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Obj is the types object for declared functions (nil for literals).
	Obj *types.Func
	// Body is the function body (never nil; bodyless declarations are
	// not indexed).
	Body *ast.BlockStmt
	// Encl is the innermost enclosing FuncInfo for literals (nil for
	// declarations), so checks can inherit facts like a captured
	// context parameter.
	Encl *FuncInfo

	once  sync.Once
	graph *Graph
}

// CFG returns the function's control-flow graph, built on first use.
// Safe for concurrent use.
func (f *FuncInfo) CFG() *Graph {
	f.once.Do(func() { f.graph = Build(f.Body) })
	return f.graph
}

// Name returns a human-readable identifier: the declared name, or
// "func@line" positions are left to the caller for literals.
func (f *FuncInfo) Name() string {
	if f.Decl != nil {
		return f.Decl.Name.Name
	}
	return "func literal"
}

// Program indexes every function in one package's files and resolves
// static call sites between them. Checks build one Program per package
// and consult callee facts through it; cross-package resolution happens
// at the lint layer, which can match *types.Func objects across
// Programs because the loader shares type identity.
type Program struct {
	Info  *types.Info
	Funcs []*FuncInfo // declaration order, literals after their encloser

	// Spawns lists every go statement in the Program, in source order.
	Spawns []*ast.GoStmt

	byObj map[*types.Func]*FuncInfo
}

// BuildProgram indexes the functions of the given files.
func BuildProgram(info *types.Info, files []*ast.File) *Program {
	p := &Program{
		Info:  info,
		byObj: make(map[*types.Func]*FuncInfo),
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := &FuncInfo{Decl: fd, Body: fd.Body}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				fi.Obj = obj
				p.byObj[obj] = fi
			}
			p.Funcs = append(p.Funcs, fi)
			p.indexLiterals(fd.Body, fi)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Spawns = append(p.Spawns, g)
				}
				return true
			})
		}
	}
	return p
}

// indexLiterals registers every function literal nested in body, with
// encl as the enclosing function of the outermost ones.
func (p *Program) indexLiterals(body *ast.BlockStmt, encl *FuncInfo) {
	var walk func(n ast.Node, encl *FuncInfo)
	walk = func(n ast.Node, encl *FuncInfo) {
		ast.Inspect(n, func(m ast.Node) bool {
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			fi := &FuncInfo{Lit: lit, Body: lit.Body, Encl: encl}
			p.Funcs = append(p.Funcs, fi)
			walk(lit.Body, fi)
			return false // inner literals handled by the recursive walk
		})
	}
	walk(body, encl)
}

// FuncOf returns the FuncInfo for a declared function object, or nil if
// the object is not in this Program (e.g. another package).
func (p *Program) FuncOf(obj *types.Func) *FuncInfo {
	return p.byObj[obj]
}

// StaticCallee resolves a call expression to the *types.Func it
// statically invokes: direct calls (`f(x)`), method calls (`s.m(x)`),
// and package-qualified calls (`pkg.F(x)`). Dynamic calls through
// function values, interface methods without a concrete receiver, and
// built-ins return nil.
func (p *Program) StaticCallee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			// Method value/call through a concrete receiver. Interface
			// method calls resolve to the interface method object, which
			// has no body anywhere — callers get nil from FuncOf and
			// treat the call as opaque.
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.F.
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
