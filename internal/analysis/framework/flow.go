package framework

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the lightweight intraprocedural dataflow layer shared by
// the protocol analyzers (stampwidth, hbpublish, telemhook).  It is
// deliberately not a CFG: the atomic protocols this module enforces are
// all written in the straight-line publish → recheck → block and
// `if CAS { commit }` shapes, so a source-ordered event stream per
// function plus success-region extraction for CAS commits plus one-level
// reaching definitions covers every check without the cost (or the
// false-positive surface) of a full fixpoint analysis.

// FuncFlow is the per-function view handed to analyzers: the declaration
// plus lazily built event and definition indexes.
type FuncFlow struct {
	Pass *Pass
	Decl *ast.FuncDecl

	events []Event
	defs   map[types.Object]ast.Expr
}

// Event is one source-ordered occurrence inside a function body that the
// protocol analyzers care about: a call (with its printed selector path)
// or a potentially blocking operation.
type Event struct {
	Pos  token.Pos
	Node ast.Node
	// Call is non-nil for call events; Path is then the printed callee
	// expression, e.g. "d.top.CompareAndSwap" or "workAvailable".
	Call *ast.CallExpr
	Path string
	// Blocking marks operations that can park the goroutine: channel
	// receives and sends, select statements, and calls to well-known
	// blockers (sync.WaitGroup.Wait, sync.Cond.Wait, time.Sleep).
	Blocking bool
}

// Flows builds a FuncFlow for every function declaration with a body.
func Flows(pass *Pass) []*FuncFlow {
	var out []*FuncFlow
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, &FuncFlow{Pass: pass, Decl: fd})
		}
	}
	return out
}

// FlowAt returns the flow whose function body encloses pos, or nil.
func FlowAt(flows []*FuncFlow, pos token.Pos) *FuncFlow {
	for _, fl := range flows {
		if fl.Decl.Pos() <= pos && pos < fl.Decl.End() {
			return fl
		}
	}
	return nil
}

// Events returns the function's call/blocking events in source order.
func (f *FuncFlow) Events() []Event {
	if f.events != nil {
		return f.events
	}
	// Receives and sends inside a select body are part of the select
	// event (which knows whether a default case makes it a poll), not
	// blocking events of their own.
	var selects []*ast.SelectStmt
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			selects = append(selects, s)
		}
		return true
	})
	inSelect := func(n ast.Node) bool {
		for _, s := range selects {
			if within(s.Body, n) {
				return true
			}
		}
		return false
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ev := Event{Pos: n.Pos(), Node: n, Call: n, Path: calleePath(n)}
			ev.Blocking = blockingCall(f.Pass, n)
			f.events = append(f.events, ev)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inSelect(n) { // channel receive
				f.events = append(f.events, Event{Pos: n.Pos(), Node: n, Blocking: true})
			}
		case *ast.SendStmt:
			if inSelect(n) {
				return true
			}
			f.events = append(f.events, Event{Pos: n.Pos(), Node: n, Blocking: true})
		case *ast.SelectStmt:
			// A select with a default case polls; without one it parks.
			blocking := true
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					blocking = false
				}
			}
			f.events = append(f.events, Event{Pos: n.Pos(), Node: n, Blocking: blocking})
		}
		return true
	})
	// ast.Inspect visits parents before children but sibling subtrees in
	// source order; a final sort by position makes the stream exactly
	// source-ordered regardless of nesting.
	for i := 1; i < len(f.events); i++ {
		for j := i; j > 0 && f.events[j].Pos < f.events[j-1].Pos; j-- {
			f.events[j], f.events[j-1] = f.events[j-1], f.events[j]
		}
	}
	if f.events == nil {
		f.events = []Event{}
	}
	return f.events
}

// EventsAfter returns the events strictly after pos, in source order.
func (f *FuncFlow) EventsAfter(pos token.Pos) []Event {
	evs := f.Events()
	for i, ev := range evs {
		if ev.Pos > pos {
			return evs[i:]
		}
	}
	return nil
}

// calleePath prints a call's callee expression: selector chains render as
// dotted paths ("d.top.CompareAndSwap"), plain identifiers as themselves,
// anything else (func literals, index expressions) as "".
func calleePath(call *ast.CallExpr) string {
	var parts []string
	e := ast.Unparen(call.Fun)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			parts = append(parts, x.Name)
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return strings.Join(parts, ".")
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = ast.Unparen(x.X)
		case *ast.CallExpr:
			// Method on a call result, e.g. w.size().Add — keep walking
			// through the inner callee so the path reads "w.size.Add".
			e = ast.Unparen(x.Fun)
		default:
			return ""
		}
	}
}

// blockingCall reports whether a call is to a well-known parking API.
func blockingCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sync":
		return fn.Name() == "Wait" // WaitGroup.Wait, Cond.Wait
	case "time":
		return fn.Name() == "Sleep"
	}
	return false
}

// StmtOnLine returns the smallest statement starting on the given line of
// the given file, or nil.  Analyzers use it to resolve which statement a
// standalone or end-of-line directive governs.
func (f *FuncFlow) StmtOnLine(file string, line int) ast.Stmt {
	fset := f.Pass.Fset
	var best ast.Stmt
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if !ok {
			return true
		}
		p := fset.Position(s.Pos())
		if p.Filename == file && p.Line == line {
			best = s // keep descending: innermost statement wins
		}
		return true
	})
	return best
}

// SuccessRegion returns the statements that execute only when the commit
// expression (typically a CAS or DCAS call) succeeds.  Three shapes are
// recognized, covering every commit site in this module:
//
//	if x.CompareAndSwap(old, new) { S... }      -> S...
//	if !x.CompareAndSwap(old, new) { continue } -> statements after the if
//	ok := x.CAS(...); if ok { S... }            -> S... (one-level def)
//
// A commit used any other way returns the statements after the commit's
// enclosing statement — the straight-line fallthrough — which is the
// conservative region for an unconditional commit.
func (f *FuncFlow) SuccessRegion(commit ast.Node) []ast.Stmt {
	// Find the ancestor chain of the commit node.
	var stack []ast.Node
	var chain []ast.Node
	ast.Inspect(f.Decl, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if n == commit && chain == nil {
			chain = append([]ast.Node(nil), stack...)
		}
		stack = append(stack, n)
		return true
	})
	if chain == nil {
		return nil
	}
	// Nearest enclosing statement and, if present, an if-statement whose
	// condition contains the commit.
	var encl ast.Stmt
	var ifCond *ast.IfStmt
	negated := false
	for i := len(chain) - 1; i >= 0; i-- {
		if s, ok := chain[i].(ast.Stmt); ok && encl == nil {
			encl = s
		}
		if is, ok := chain[i].(*ast.IfStmt); ok && within(is.Cond, commit) {
			ifCond = is
			negated = negatedIn(is.Cond, commit)
			encl = is
			break
		}
	}
	if ifCond != nil && !negated {
		return ifCond.Body.List
	}
	if ifCond != nil && negated && terminates(ifCond.Body) {
		return stmtsAfter(chain, ifCond)
	}
	// ok := CAS(...); if ok { ... }  — a following if on a variable the
	// commit assigned (one-level reaching definition).  The assignment
	// may sit inside an if/else arm selecting between two provider
	// forms, with the `if ok` test following the *outer* statement, so
	// the search walks the enclosing blocks outward.
	if as, ok := encl.(*ast.AssignStmt); ok {
		names := map[string]bool{}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				names[id.Name] = true
			}
		}
		for i := len(chain) - 1; i >= 0 && len(names) > 0; i-- {
			blk, ok := chain[i].(*ast.BlockStmt)
			if !ok {
				continue
			}
			var after []ast.Stmt
			for j, st := range blk.List {
				if within(st, encl) {
					after = blk.List[j+1:]
					break
				}
			}
			for _, s := range after {
				if is, ok := s.(*ast.IfStmt); ok {
					if id := leftmostIdent(is.Cond); id != nil && names[id.Name] {
						return is.Body.List
					}
				}
			}
		}
	}
	return stmtsAfter(chain, encl)
}

// leftmostIdent returns the leftmost identifier of a condition built from
// `&&` conjunctions, so both `if ok` and `if ok && v2 == old` test-match;
// a negated condition returns nil.
func leftmostIdent(cond ast.Expr) *ast.Ident {
	e := ast.Unparen(cond)
	for {
		switch x := e.(type) {
		case *ast.BinaryExpr:
			if x.Op != token.LAND {
				return nil
			}
			e = ast.Unparen(x.X)
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// within reports whether target lies inside root's subtree.
func within(root ast.Node, target ast.Node) bool {
	return root != nil && root.Pos() <= target.Pos() && target.End() <= root.End()
}

// negatedIn reports whether target sits under an odd number of `!`
// operators within cond.
func negatedIn(cond ast.Expr, target ast.Node) bool {
	neg := false
	e := cond
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op == token.NOT && within(x.X, target) {
				neg = !neg
				e = x.X
				continue
			}
			return neg
		case *ast.BinaryExpr:
			if within(x.X, target) {
				e = x.X
			} else if within(x.Y, target) {
				e = x.Y
			} else {
				return neg
			}
		default:
			return neg
		}
	}
}

// terminates reports whether a block always leaves the enclosing flow:
// its last statement is a return, break, continue, goto, or panic call.
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// stmtsAfter returns the statements following s in its enclosing block,
// located via the commit's ancestor chain.
func stmtsAfter(chain []ast.Node, s ast.Stmt) []ast.Stmt {
	for i := len(chain) - 1; i >= 0; i-- {
		if blk, ok := chain[i].(*ast.BlockStmt); ok {
			for j, st := range blk.List {
				if within(st, s) {
					return blk.List[j+1:]
				}
			}
		}
	}
	return nil
}

// Defs returns the function's one-level reaching definitions: for each
// locally defined or assigned variable, the expression last syntactically
// assigned to it.  A variable assigned from multiple sites maps to nil
// (unknown), keeping clients conservative.  This is not a real dataflow
// lattice — single-assignment locals (`w := d.top.Load()`) are the only
// pattern the protocol code uses, and the map lets analyzers expand one
// identifier hop when matching evidence expressions.
func (f *FuncFlow) Defs() map[types.Object]ast.Expr {
	if f.defs != nil {
		return f.defs
	}
	f.defs = map[types.Object]ast.Expr{}
	seen := map[types.Object]int{}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := f.Pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = f.Pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			seen[obj]++
			if seen[obj] > 1 {
				f.defs[obj] = nil
				continue
			}
			f.defs[obj] = as.Rhs[i]
		}
		return true
	})
	return f.defs
}
