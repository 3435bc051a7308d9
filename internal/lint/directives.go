package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// ignoreDirective is one parsed //ecslint:ignore comment. Checks is the
// set of check names it suppresses; Line is the source line the
// suppression anchors to (the comment's own line, or the next line when
// the comment stands alone above the annotated statement).
//
// Syntax:
//
//	//ecslint:ignore <check>[,<check>...] <justification>
//
// A justification is required: a directive without one is itself
// reported, so every suppression carries its reason in the source.
//
// The suppression covers the full source span of the smallest statement
// (or declaration, or struct field) starting on the anchor line, so a
// call broken across several lines is covered by one directive above it.
// For statements that carry a block (if/for/switch/select, function
// declarations) the span stops at the opening brace: a directive on the
// loop header never blankets the loop body.
type ignoreDirective struct {
	file    string
	line    int
	checks  map[string]bool
	why     string
	comment *ast.Comment
}

const ignorePrefix = "//ecslint:ignore"

// parseIgnores extracts the ignore directives from one parsed file.
// src is the file's raw bytes, used to decide whether a directive stands
// alone on its line (in which case it anchors to the following line).
func parseIgnores(pkg *Package, f *ast.File, src []byte) []ignoreDirective {
	var out []ignoreDirective
	lines := strings.Split(string(src), "\n")
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, ignorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //ecslint:ignorexyz — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue // malformed; reported by checkDirective
			}
			pos := pkg.Fset.Position(c.Pos())
			d := ignoreDirective{
				file:    pos.Filename,
				line:    pos.Line,
				checks:  make(map[string]bool),
				why:     strings.Join(fields[1:], " "),
				comment: c,
			}
			for _, name := range strings.Split(fields[0], ",") {
				if name != "" {
					d.checks[name] = true
				}
			}
			// A directive alone on its line anchors to the next line —
			// the annotated statement sits below the comment.
			if pos.Line-1 < len(lines) {
				before := lines[pos.Line-1]
				if pos.Column-1 <= len(before) && strings.TrimSpace(before[:pos.Column-1]) == "" {
					d.line = pos.Line + 1
				}
			}
			out = append(out, d)
		}
	}
	return out
}

// directiveEndLine extends a directive anchored at line to the last line
// of the smallest statement, declaration, spec, field, or struct-literal
// element starting there. Block-bearing statements stop at their opening
// brace. Returns line itself when nothing starts on it.
func directiveEndLine(pkg *Package, f *ast.File, line int) int {
	end := line
	bestSpan := -1
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n.(type) {
		case *ast.BlockStmt:
			// A bare block is its parent's body: letting it win here
			// would make a header-line directive blanket the whole body,
			// exactly what the block-capping below exists to prevent.
			return true
		case ast.Stmt, ast.Decl, ast.Spec, *ast.Field, *ast.KeyValueExpr:
		default:
			return true
		}
		if pkg.Fset.Position(n.Pos()).Line != line {
			return true
		}
		span := int(n.End() - n.Pos())
		if bestSpan >= 0 && span >= bestSpan {
			return true
		}
		bestSpan = span
		stop := n.End()
		// Cap block-bearing statements at the block start: the directive
		// covers the header, not the body.
		switch x := n.(type) {
		case *ast.IfStmt:
			stop = x.Body.Pos()
		case *ast.ForStmt:
			stop = x.Body.Pos()
		case *ast.RangeStmt:
			stop = x.Body.Pos()
		case *ast.SwitchStmt:
			stop = x.Body.Pos()
		case *ast.TypeSwitchStmt:
			stop = x.Body.Pos()
		case *ast.SelectStmt:
			stop = x.Body.Pos()
		case *ast.FuncDecl:
			if x.Body != nil {
				stop = x.Body.Pos()
			}
		}
		end = pkg.Fset.Position(stop).Line
		return true
	})
	if end < line {
		end = line
	}
	return end
}

// ignoreSpan is one resolved suppression region. dLine/dCol locate the
// directive comment itself (where staleness is reported); used records
// whether the span suppressed anything this run.
type ignoreSpan struct {
	startLine, endLine int
	checks             map[string]bool
	dLine, dCol        int
	used               bool
}

// applyIgnores drops the findings matched by a directive covering their
// line and returns the rest. Malformed directives — no justification, or
// naming an unknown check — are themselves reported.
// When the unusedignore check is enabled, directives that suppressed
// nothing — and whose named checks all ran, so silence means the code
// is clean, not the check switched off — are reported as stale.
func applyIgnores(pkgs []*Package, findings []Finding, cfg *Config) []Finding {
	ignores := make(map[string][]*ignoreSpan) // module-relative file -> spans
	known := make(map[string]bool)
	for _, c := range AllChecks() {
		known[c.Name] = true
	}
	var files []string // deterministic span order for staleness reports
	for _, pkg := range pkgs {
		for i, f := range pkg.Files {
			for _, d := range parseIgnores(pkg, f, pkg.Sources[i]) {
				pos := pkg.Fset.Position(d.comment.Pos())
				file := relToModule(pkg.ModuleDir, d.file)
				if d.why == "" {
					findings = append(findings, Finding{
						File: file, Line: pos.Line, Col: pos.Column,
						Check: "directive",
						Msg:   "ecslint:ignore needs a justification: //ecslint:ignore <check> <why>",
					})
				}
				span := &ignoreSpan{
					startLine: d.line,
					endLine:   directiveEndLine(pkg, f, d.line),
					checks:    make(map[string]bool),
					dLine:     pos.Line,
					dCol:      pos.Column,
				}
				for name := range d.checks {
					if !known[name] {
						findings = append(findings, Finding{
							File: file, Line: pos.Line, Col: pos.Column,
							Check: "directive",
							Msg:   "ecslint:ignore names unknown check " + name,
						})
						continue
					}
					span.checks[name] = true
				}
				if len(span.checks) > 0 {
					if _, seen := ignores[file]; !seen {
						files = append(files, file)
					}
					ignores[file] = append(ignores[file], span)
				}
			}
		}
	}
	active := findings[:0]
	for _, f := range findings {
		if !matchIgnore(ignores[f.File], f) {
			active = append(active, f)
		}
	}
	if cfg.CheckEnabled("unusedignore") {
		active = append(active, staleIgnores(files, ignores, cfg)...)
	}
	return active
}

// staleIgnores turns unused directives into unusedignore findings. A
// span is judged only when every check it names actually ran; a stale
// report is itself suppressible by a directive naming unusedignore.
// Directives naming unusedignore are never themselves judged stale:
// they are meta-suppressions whose use is only established while this
// very pass runs, so judging them here would be order-dependent.
func staleIgnores(files []string, ignores map[string][]*ignoreSpan, cfg *Config) []Finding {
	var out []Finding
	for _, file := range files {
		for _, s := range ignores[file] {
			if s.used || s.checks["unusedignore"] {
				continue
			}
			allRan := true
			var names []string
			for name := range s.checks {
				names = append(names, name)
				if !cfg.CheckEnabled(name) {
					allRan = false
				}
			}
			if !allRan {
				continue
			}
			sort.Strings(names)
			f := Finding{
				File: file, Line: s.dLine, Col: s.dCol,
				Check: "unusedignore",
				Msg: "ecslint:ignore for " + strings.Join(names, ",") +
					" suppresses nothing: the check is clean here — remove the stale directive",
			}
			if !matchIgnore(ignores[file], f) {
				out = append(out, f)
			}
		}
	}
	return out
}

// matchIgnore reports whether some span covers the finding's line and
// check, marking the first such span used.
func matchIgnore(spans []*ignoreSpan, f Finding) bool {
	for _, s := range spans {
		if f.Line >= s.startLine && f.Line <= s.endLine && s.checks[f.Check] {
			s.used = true
			return true
		}
	}
	return false
}
