package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocfreeCheck statically defends the zero-allocation contract that
// PR 7's runtime AllocsPerRun gates only spot-check: a function
// annotated
//
//	//ecsalloc:zero
//
// in its doc comment — and, transitively, every function it statically
// calls — must not contain a heap-allocating operation. The analysis
// flags, with a "why this allocates" reason each:
//
//   - make, new, and slice/map composite literals (a literal used
//     directly as a `range` operand is exempt: it never escapes)
//   - &T{} composite literals (address taken, assumed to escape)
//   - append whose destination is a zero-capacity local (`var x []T`)
//   - boxing a non-pointer, non-constant value into an interface
//     (assignments, call arguments, returns, sends, literal elements,
//     conversions) — pointer values are exempt, which is exactly what
//     makes the pooled-pointer Put/Get idiom legal
//   - string↔[]byte conversions, except directly inside an ==/!=
//     comparison or a map index, which the compiler keeps on the stack
//   - non-constant string concatenation
//   - capturing function literals, method values, and go statements
//   - calls into fmt, log, and the allocating half of errors
//
// Pre-pooled or deliberately cold allocation sites are accepted with a
// justified line directive (same-line, or standalone above, covering
// the full statement span like //ecslint:ignore):
//
//	//ecsalloc:sink <justification>
//
// A sink also stops the interprocedural descent into calls on its
// statement. Dynamic calls (interface methods, function values) are
// not descended — implementations that matter should carry their own
// //ecsalloc:zero. Config.AllocMustAnnotate pins the hot-path
// functions whose annotation must not silently disappear.
var allocfreeCheck = Check{
	Name:   "allocfree",
	Doc:    "heap allocation on an //ecsalloc:zero path (make, boxing, escaping literals, fmt/errors, closures)",
	Global: runAllocfree,
}

const allocPrefix = "//ecsalloc:"

// afEntry is one declared function in the loaded tree.
type afEntry struct {
	pkg  *Package
	fd   *ast.FuncDecl
	obj  *types.Func
	zero bool
}

func (e *afEntry) name() string {
	if e.obj != nil {
		return strings.TrimPrefix(e.obj.FullName(), "ecsdns/internal/")
	}
	return e.fd.Name.Name
}

// afSite is one direct allocation site with its reason.
type afSite struct {
	pos  token.Pos
	what string
}

// afSummary caches one function's direct allocation sites and the
// static callees the contract descends into.
type afSummary struct {
	sites []afSite
	calls []*types.Func
}

// afIndex is the whole-tree analysis state.
type afIndex struct {
	gctx      *GlobalContext
	byObj     map[*types.Func]*afEntry
	byName    map[string]*afEntry
	entries   []*afEntry               // deterministic order
	sinks     map[string][]*ignoreSpan // module-relative file -> sink spans
	sinkFiles []string                 // deterministic sink order
	summaries map[*afEntry]*afSummary
	reported  map[token.Pos]bool
}

func runAllocfree(gctx *GlobalContext) {
	x := &afIndex{
		gctx:      gctx,
		byObj:     make(map[*types.Func]*afEntry),
		byName:    make(map[string]*afEntry),
		sinks:     make(map[string][]*ignoreSpan),
		summaries: make(map[*afEntry]*afSummary),
		reported:  make(map[token.Pos]bool),
	}
	x.buildIndex()

	// Stale-proof the contract list: the named hot paths must exist and
	// stay annotated, so un-annotating AppendPack is itself a finding.
	for _, name := range gctx.Cfg.AllocMustAnnotate {
		e, ok := x.byName[name]
		if !ok {
			continue // function lives outside the loaded pattern set
		}
		if !e.zero {
			gctx.Reportf(e.pkg, e.fd.Name.Pos(),
				"%s is on the zero-alloc contract list (AllocMustAnnotate) but lacks a //ecsalloc:zero annotation", e.name())
		}
	}

	for _, e := range x.entries {
		if e.zero {
			x.verify(e)
		}
	}

	// A sink no allocation site ever matched is stale: either the code
	// below it stopped allocating, or it drifted off every zero-alloc
	// path. Reported under unusedignore so the suppression audit owns it.
	if gctx.Cfg.CheckEnabled("unusedignore") {
		for _, file := range x.sinkFiles {
			for _, s := range x.sinks[file] {
				if !s.used {
					gctx.reportAs("unusedignore", file, s.dLine, s.dCol,
						"ecsalloc:sink absorbs no allocation site on any //ecsalloc:zero path — remove the stale directive")
				}
			}
		}
	}
}

// buildIndex collects every declared function, its //ecsalloc:zero
// annotation, and the per-file sink spans; malformed directives are
// reported here.
func (x *afIndex) buildIndex() {
	for _, pkg := range x.gctx.Pkgs {
		zeroDocs := make(map[*ast.Comment]bool)
		for fi, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				e := &afEntry{pkg: pkg, fd: fd}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					e.obj = obj
					x.byObj[obj] = e
					x.byName[obj.FullName()] = e
				}
				if fd.Doc != nil {
					for _, cm := range fd.Doc.List {
						if cm.Text == allocPrefix+"zero" {
							e.zero = true
							zeroDocs[cm] = true
						}
					}
				}
				x.entries = append(x.entries, e)
			}
			x.parseSinks(pkg, f, pkg.Sources[fi], zeroDocs)
		}
	}
}

// parseSinks extracts //ecsalloc:sink spans from one file (mirroring
// the //ecslint:ignore span rules) and reports malformed //ecsalloc
// directives: unknown verbs, sinks without a justification, and zero
// annotations not attached to a function declaration.
func (x *afIndex) parseSinks(pkg *Package, f *ast.File, src []byte, zeroDocs map[*ast.Comment]bool) {
	lines := strings.Split(string(src), "\n")
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, allocPrefix)
			if !ok {
				continue
			}
			verb, why, _ := strings.Cut(rest, " ")
			switch verb {
			case "zero":
				if !zeroDocs[c] {
					x.gctx.Reportf(pkg, c.Pos(), "//ecsalloc:zero must be the doc comment of a function declaration")
				}
			case "sink":
				if strings.TrimSpace(why) == "" {
					x.gctx.Reportf(pkg, c.Pos(), "//ecsalloc:sink needs a justification: //ecsalloc:sink <why>")
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				line := pos.Line
				// Standalone directives anchor to the next line.
				if line-1 < len(lines) {
					before := lines[line-1]
					if pos.Column-1 <= len(before) && strings.TrimSpace(before[:pos.Column-1]) == "" {
						line++
					}
				}
				file := relToModule(pkg.ModuleDir, pos.Filename)
				if _, seen := x.sinks[file]; !seen {
					x.sinkFiles = append(x.sinkFiles, file)
				}
				x.sinks[file] = append(x.sinks[file], &ignoreSpan{
					startLine: line,
					endLine:   directiveEndLine(pkg, f, line),
					dLine:     pos.Line,
					dCol:      pos.Column,
				})
			default:
				x.gctx.Reportf(pkg, c.Pos(), "unknown ecsalloc verb %q; expected //ecsalloc:zero or //ecsalloc:sink <why>", verb)
			}
		}
	}
}

// sunk reports whether pos is covered by an //ecsalloc:sink span,
// marking the span used (a sink that never absorbs a site is stale).
func (x *afIndex) sunk(pkg *Package, pos token.Pos) bool {
	p := pkg.Fset.Position(pos)
	file := relToModule(pkg.ModuleDir, p.Filename)
	for _, s := range x.sinks[file] {
		if p.Line >= s.startLine && p.Line <= s.endLine {
			s.used = true
			return true
		}
	}
	return false
}

// verify walks the static call graph from one //ecsalloc:zero root,
// reporting every un-sunk allocation site reached. A site is reported
// once, for the first root that reaches it.
func (x *afIndex) verify(root *afEntry) {
	seen := make(map[*afEntry]bool)
	var visit func(e *afEntry, via string)
	visit = func(e *afEntry, via string) {
		if seen[e] {
			return
		}
		seen[e] = true
		sum := x.summaryOf(e)
		for _, s := range sum.sites {
			if x.reported[s.pos] {
				continue
			}
			x.reported[s.pos] = true
			if e == root {
				x.gctx.Reportf(e.pkg, s.pos, "%s on the //ecsalloc:zero path of %s", s.what, root.name())
			} else {
				x.gctx.Reportf(e.pkg, s.pos, "%s on the //ecsalloc:zero path of %s (reached via %s)", s.what, root.name(), via)
			}
		}
		for _, obj := range sum.calls {
			callee := x.byObj[obj]
			if callee == nil {
				// Packages carrying test files are type-checked as a fresh
				// compilation unit, so cross-package callees must be
				// re-matched by their stable full name.
				callee = x.byName[obj.FullName()]
			}
			if callee == nil {
				continue // out-of-module callee: assumed clean unless denylisted
			}
			next := callee.name()
			if via != "" {
				next = via + " -> " + next
			}
			visit(callee, next)
		}
	}
	visit(root, "")
}

// summaryOf computes (once) the direct allocation sites of e and the
// static callees the analysis descends into.
func (x *afIndex) summaryOf(e *afEntry) *afSummary {
	if s, ok := x.summaries[e]; ok {
		return s
	}
	s := x.scan(e)
	x.summaries[e] = s
	return s
}

// afCtx is the per-function context the allocation walker needs:
// which expressions sit in an allocation-neutral position.
type afCtx struct {
	rangeOps    map[ast.Expr]bool // composite literal ranged over directly
	cmpOps      map[ast.Expr]bool // operand of ==/!= or a map index
	callFuns    map[ast.Expr]bool // expression in call-function position
	goCalls     map[*ast.CallExpr]bool
	innerLits   map[*ast.CompositeLit]bool // nested in another literal
	addressed   map[*ast.CompositeLit]bool // operand of &
	freshLocals map[*types.Var]bool        // var x []T with no initializer
}

func (x *afIndex) scan(e *afEntry) *afSummary {
	info := e.pkg.Info
	sum := &afSummary{}
	c := &afCtx{
		rangeOps:    make(map[ast.Expr]bool),
		cmpOps:      make(map[ast.Expr]bool),
		callFuns:    make(map[ast.Expr]bool),
		goCalls:     make(map[*ast.CallExpr]bool),
		innerLits:   make(map[*ast.CompositeLit]bool),
		addressed:   make(map[*ast.CompositeLit]bool),
		freshLocals: make(map[*types.Var]bool),
	}
	ast.Inspect(e.fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.RangeStmt:
			c.rangeOps[ast.Unparen(t.X)] = true
		case *ast.BinaryExpr:
			if t.Op == token.EQL || t.Op == token.NEQ {
				c.cmpOps[ast.Unparen(t.X)] = true
				c.cmpOps[ast.Unparen(t.Y)] = true
			}
		case *ast.IndexExpr:
			if tv, ok := info.Types[t.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					c.cmpOps[ast.Unparen(t.Index)] = true
				}
			}
		case *ast.CallExpr:
			c.callFuns[ast.Unparen(t.Fun)] = true
		case *ast.GoStmt:
			c.goCalls[t.Call] = true
		case *ast.UnaryExpr:
			if t.Op == token.AND {
				if lit, ok := ast.Unparen(t.X).(*ast.CompositeLit); ok {
					c.addressed[lit] = true
				}
			}
		case *ast.CompositeLit:
			for _, el := range t.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if lit, ok := ast.Unparen(el).(*ast.CompositeLit); ok {
					c.innerLits[lit] = true
				}
			}
		case *ast.DeclStmt:
			if gd, ok := t.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, sp := range gd.Specs {
					vs, ok := sp.(*ast.ValueSpec)
					if !ok || len(vs.Values) > 0 {
						continue
					}
					for _, nm := range vs.Names {
						if v, ok := info.Defs[nm].(*types.Var); ok {
							if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
								c.freshLocals[v] = true
							}
						}
					}
				}
			}
		}
		return true
	})

	site := func(pos token.Pos, what string) {
		if !x.sunk(e.pkg, pos) {
			sum.sites = append(sum.sites, afSite{pos: pos, what: what})
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			if caps := x.captures(e, t); len(caps) > 0 && !x.sunk(e.pkg, t.Pos()) {
				site(t.Pos(), fmt.Sprintf("function literal captures %s and allocates a closure", strings.Join(caps, ", ")))
			}
			return false // the literal's body is only reachable dynamically
		case *ast.GoStmt:
			site(t.Pos(), "go statement allocates a goroutine")
			return true
		case *ast.CompositeLit:
			x.compositeSite(e, c, t, site)
			return true
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[t]; ok && sel.Kind() == types.MethodVal && !c.callFuns[t] {
				site(t.Pos(), "method value allocates a bound-method closure")
			}
			return true
		case *ast.BinaryExpr:
			if t.Op == token.ADD {
				if tv, ok := info.Types[t]; ok && tv.Value == nil && isStringType(tv.Type) {
					site(t.Pos(), "string concatenation allocates")
				}
			}
			return true
		case *ast.CallExpr:
			return x.callSite(e, c, sum, t, site)
		case *ast.AssignStmt:
			if len(t.Lhs) == len(t.Rhs) {
				for i, lhs := range t.Lhs {
					x.boxSite(e, typeOfExpr(info, lhs), t.Rhs[i], site)
				}
			}
			return true
		case *ast.ValueSpec:
			if t.Type != nil {
				for _, v := range t.Values {
					x.boxSite(e, typeOfExpr(info, t.Type), v, site)
				}
			}
			return true
		case *ast.ReturnStmt:
			if e.obj != nil {
				sig := e.obj.Type().(*types.Signature)
				if sig.Results().Len() == len(t.Results) {
					for i, r := range t.Results {
						x.boxSite(e, sig.Results().At(i).Type(), r, site)
					}
				}
			}
			return true
		case *ast.SendStmt:
			if ch, ok := typeOfExpr(info, t.Chan).Underlying().(*types.Chan); ok {
				x.boxSite(e, ch.Elem(), t.Value, site)
			}
			return true
		}
		return true
	}
	ast.Inspect(e.fd.Body, walk)
	return sum
}

// compositeSite classifies one composite literal.
func (x *afIndex) compositeSite(e *afEntry, c *afCtx, lit *ast.CompositeLit, site func(token.Pos, string)) {
	if c.rangeOps[lit] || c.innerLits[lit] {
		return // range operands stay on the stack; inner literals report via the outermost
	}
	tv, ok := e.pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		site(lit.Pos(), "slice literal allocates its backing array")
	case *types.Map:
		site(lit.Pos(), "map literal allocates")
	default:
		if c.addressed[lit] {
			site(lit.Pos(), fmt.Sprintf("&%s{} allocates (address-taken composite literal escapes)", typeShort(tv.Type)))
		} else {
			// A plain struct/array value is a stack value; boxing it into
			// an interface is caught by the boxing rules at its use site.
			x.boxElemSites(e, tv.Type, lit, site)
		}
		return
	}
	x.boxElemSites(e, tv.Type, lit, site)
}

// boxElemSites applies the interface-boxing rule to a literal's
// elements (e.g. []any{v}, struct fields of interface type).
func (x *afIndex) boxElemSites(e *afEntry, typ types.Type, lit *ast.CompositeLit, site func(token.Pos, string)) {
	switch u := typ.Underlying().(type) {
	case *types.Slice:
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			x.boxSite(e, u.Elem(), el, site)
		}
	case *types.Array:
		for _, el := range lit.Elts {
			x.boxSite(e, u.Elem(), el, site)
		}
	case *types.Map:
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				x.boxSite(e, u.Key(), kv.Key, site)
				x.boxSite(e, u.Elem(), kv.Value, site)
			}
		}
	case *types.Struct:
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					for j := 0; j < u.NumFields(); j++ {
						if u.Field(j).Name() == id.Name {
							x.boxSite(e, u.Field(j).Type(), kv.Value, site)
						}
					}
				}
				continue
			}
			if i < u.NumFields() {
				x.boxSite(e, u.Field(i).Type(), el, site)
			}
		}
	}
}

// callSite handles one call expression: builtins, conversions, the
// fmt/errors/log denylist, argument boxing, and the interprocedural
// descent list. Returns false to stop descending (denylisted calls:
// the per-argument boxing would be noise on top of the call finding).
func (x *afIndex) callSite(e *afEntry, c *afCtx, sum *afSummary, call *ast.CallExpr, site func(token.Pos, string)) bool {
	info := e.pkg.Info
	fun := ast.Unparen(call.Fun)

	// Type conversion?
	if tv, ok := info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		x.convSite(e, c, call, tv.Type, site)
		return true
	}

	// Builtin?
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				site(call.Pos(), "make allocates")
			case "new":
				site(call.Pos(), "new allocates")
			case "append":
				if len(call.Args) > 0 {
					if v := baseVarOf(info, call.Args[0]); v != nil && c.freshLocals[v] {
						site(call.Pos(), fmt.Sprintf("append to %s grows from zero capacity on every call", v.Name()))
					}
				}
			}
			return true
		}
	}

	callee := e.pkg.Flow().StaticCallee(call)
	if callee != nil {
		if what, denied := allocDenied(callee); denied {
			site(call.Pos(), what)
			return false
		}
		if sig, ok := callee.Type().(*types.Signature); ok {
			x.callBoxSites(e, sig, call, site)
		}
		if !c.goCalls[call] && !x.sunk(e.pkg, call.Pos()) {
			sum.calls = append(sum.calls, callee)
		}
		return true
	}
	// Dynamic call: not descended, but argument boxing still shows.
	if sig, ok := typeOfExpr(info, call.Fun).Underlying().(*types.Signature); ok {
		x.callBoxSites(e, sig, call, site)
	}
	return true
}

// callBoxSites applies the boxing rule to each argument against its
// parameter type, including the variadic tail.
func (x *afIndex) callBoxSites(e *afEntry, sig *types.Signature, call *ast.CallExpr, site func(token.Pos, string)) {
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if i < params.Len()-1 || !sig.Variadic() && i < params.Len() {
			pt = params.At(i).Type()
		} else if sig.Variadic() {
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
				if call.Ellipsis != token.NoPos {
					pt = last // f(xs...) passes the slice itself
				}
			}
		}
		if pt != nil {
			x.boxSite(e, pt, arg, site)
		}
	}
}

// convSite flags string↔[]byte conversions (outside comparison and
// map-index contexts) and boxing conversions to interface types.
func (x *afIndex) convSite(e *afEntry, c *afCtx, call *ast.CallExpr, to types.Type, site func(token.Pos, string)) {
	from := typeOfExpr(e.pkg.Info, call.Args[0])
	switch {
	case isStringType(to) && isByteOrRuneSlice(from), isByteOrRuneSlice(to) && isStringType(from):
		if !c.cmpOps[ast.Unparen(call)] {
			site(call.Pos(), "string/[]byte conversion copies and allocates")
		}
	default:
		x.boxSite(e, to, call.Args[0], site)
	}
}

// boxSite flags storing a concrete non-pointer, non-constant value
// into an interface-typed slot.
func (x *afIndex) boxSite(e *afEntry, to types.Type, from ast.Expr, site func(token.Pos, string)) {
	if to == nil || !types.IsInterface(to.Underlying()) {
		return
	}
	tv, ok := e.pkg.Info.Types[from]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return // untyped nil and constants convert without allocating
	}
	ft := tv.Type
	if types.IsInterface(ft.Underlying()) || pointerLike(ft) {
		return
	}
	site(from.Pos(), fmt.Sprintf("%s value boxed into an interface allocates", typeShort(ft)))
}

// captures lists the enclosing function's variables a literal closes
// over, in source order.
func (x *afIndex) captures(e *afEntry, lit *ast.FuncLit) []string {
	var names []string
	seen := make(map[*types.Var]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := e.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= e.fd.Pos() && v.Pos() < e.fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			seen[v] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}

// allocDenied reports whether a callee belongs to the
// known-allocating stdlib surface.
func allocDenied(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "fmt":
		return fmt.Sprintf("fmt.%s allocates its formatting state", fn.Name()), true
	case "errors":
		switch fn.Name() {
		case "New", "Join":
			return fmt.Sprintf("errors.%s allocates", fn.Name()), true
		}
	case "log", "log/slog":
		return fmt.Sprintf("%s.%s allocates", pkg.Name(), fn.Name()), true
	}
	return "", false
}

// baseVarOf resolves the base variable of a possibly sliced/parenthesized
// expression, or nil.
func baseVarOf(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.Ident:
			v, _ := info.Uses[t].(*types.Var)
			return v
		default:
			return nil
		}
	}
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

// pointerLike reports whether values of t fit an interface word
// without a heap allocation.
func pointerLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// typeShort renders a type without its package path qualifier, for
// stable one-line findings.
func typeShort(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
