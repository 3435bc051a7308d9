package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ecsdns/internal/lint/flow"
)

// This file holds the lock model shared by the flow-sensitive checks
// that need to know which mutexes are held: mutexhold (blocking ops
// under a held lock) and counterpartition (bare increments outside the
// owning lock). A lock is keyed by its receiver expression, so `a.mu`
// and `b.mu` stay distinct inside one function.

// lockFacts is the may-held lattice element: lock key -> position of
// the earliest acquisition on any path. The empty map is bottom.
type lockFacts map[string]token.Pos

func (f lockFacts) clone() lockFacts {
	out := make(lockFacts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// sortedKeys returns the held lock keys in deterministic order.
func (f lockFacts) sortedKeys() []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockAnalysis builds the may-held-locks forward analysis for one
// package: Lock/RLock adds the mutex to the held set, Unlock/RUnlock
// removes it, and `defer mu.Unlock()` leaves it held to function end
// (blocking while defer-holding a lock still stalls every contender).
// Join is union with the earliest acquisition position, so facts are
// deterministic regardless of visit order.
func lockAnalysis(pkg *Package) flow.Analysis[lockFacts] {
	return flow.Analysis[lockFacts]{
		Entry:     lockFacts{},
		Unreached: lockFacts{},
		Join: func(a, b lockFacts) lockFacts {
			if len(b) == 0 {
				return a
			}
			if len(a) == 0 {
				return b
			}
			out := a.clone()
			for k, v := range b {
				if cur, ok := out[k]; !ok || v < cur {
					out[k] = v
				}
			}
			return out
		},
		Equal: func(a, b lockFacts) bool {
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
		Transfer: func(n ast.Node, in lockFacts) lockFacts {
			call := lockStmtCall(n)
			if call == nil {
				return in
			}
			sel, fn := lockMethod(pkg, call)
			if fn == nil {
				return in
			}
			key := exprString(pkg.Fset, sel.X)
			switch fn.Name() {
			case "Lock", "RLock":
				out := in.clone()
				out[key] = call.Pos()
				return out
			case "Unlock", "RUnlock":
				if _, ok := in[key]; !ok {
					return in
				}
				out := in.clone()
				delete(out, key)
				return out
			}
			return in
		},
	}
}

// lockStmtCall extracts the call expression of a statement-level lock
// operation. Deferred unlocks return nil: the lock stays held.
func lockStmtCall(n ast.Node) *ast.CallExpr {
	st, ok := n.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := st.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	return call
}

// lockMethod resolves call to a sync.Mutex/RWMutex Lock-family method,
// returning the selector and method object (nil when it is not one).
func lockMethod(pkg *Package, call *ast.CallExpr) (*ast.SelectorExpr, *types.Func) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || !isSyncLockMethod(fn) {
		return nil, nil
	}
	return sel, fn
}
