// Package telemhook implements the dequevet analyzer that cross-checks
// the linearization-point annotations against the telemetry counters
// the obligation table binds them to.
//
// The telemetry layer's conservation law (Σ pushes = Σ pops + residual,
// asserted dynamically by the invariant checks in internal/telemetry)
// only holds if every commit site actually reports its outcome.  PR 3
// wired the counters by hand; nothing since has stopped a refactor from
// moving a commit out from under its `d.note(...)` call, silently
// un-counting an outcome class until a stress run notices the books not
// balancing.  This analyzer makes the binding static.  For every
// function whose linpoint obligation declares Counters:
//
//   - each `// linearization point` commit site must increment at least
//     one declared counter on its success path — the statements that
//     run only when the commit's CAS/DCAS succeeds (the framework's
//     SuccessRegion: the `if CAS { ... }` body, the tail after a
//     negated-CAS early exit, or the `ok := DCAS(...); if ok { ... }`
//     body through one level of reaching definitions);
//
//   - each declared counter must be incremented somewhere in the
//     function body, so an outcome class cannot vanish entirely (the
//     per-site check alone would pass if every site reported the same
//     one counter).
//
// A counter increment is, syntactically, a call whose arguments mention
// the selector `telemetry.<Counter>` — the module-wide idiom is
// `d.note(telemetry.Right, telemetry.Pops, retries)` or
// `d.tel.Add(end, telemetry.Pops, n)`.  Functions whose obligation
// declares no Counters are not checked; packages absent from the table
// are ignored entirely.
//
// Obligations marked Timed additionally pin the latency-observability
// contract (PR 9): the operation stamps its entry once
// (`start := d.tstart()`) and every flush of a declared counter carries
// the stamp to the sink, so the histogram's sample population is exactly
// the counters' — an operation counted but not timed would silently
// skew the quantiles toward whichever outcomes still stamp.  A flush
// carries the stamp when the call's arguments mention the identifier
// `start`; counters moved through a bulk `Add` (a batch whose k pops
// are one commit and one latency sample) are excused per call, provided
// the function flushes latency through a `Latency(..., start)` call
// somewhere.
package telemhook

import (
	"go/ast"
	"strings"

	"dcasdeque/internal/analysis/framework"
	"dcasdeque/internal/analysis/linpoint"
)

// annotation is the comment prefix marking a commit site, shared with
// the linpoint analyzer.
const annotation = "linearization point"

// commitNames are the call names that can carry a linearization point.
var commitNames = map[string]bool{
	"DCAS": true, "DCASView": true, "RawCAS": true, "CAS": true,
}

// NewAnalyzer builds a telemhook analyzer over the given obligation
// table, keyed by package path.  The package-level Analyzer uses
// linpoint.DefaultTable; fixtures substitute their own.
func NewAnalyzer(table map[string][]linpoint.Obligation) *framework.Analyzer {
	return &framework.Analyzer{
		Name: "telemhook",
		Doc: "cross-check linearization-point commit sites against the " +
			"telemetry counters their obligation declares: every commit " +
			"must count its outcome on the success path (static half of " +
			"the telemetry conservation law)",
		Run: func(pass *framework.Pass) (any, error) {
			return run(pass, table)
		},
	}
}

// Analyzer is the telemhook analyzer over the repository's table.
var Analyzer = NewAnalyzer(linpoint.DefaultTable)

func run(pass *framework.Pass, table map[string][]linpoint.Obligation) (any, error) {
	want := map[string][]string{}
	timed := map[string]bool{}
	for _, ob := range table[pass.Pkg.Path()] {
		if len(ob.Counters) > 0 {
			want[ob.Func] = ob.Counters
			timed[ob.Func] = ob.Timed
		}
	}
	if len(want) == 0 {
		return nil, nil
	}
	flows := framework.Flows(pass)
	for _, fl := range flows {
		counters, obligated := want[funcKey(fl.Decl)]
		if !obligated {
			continue
		}
		for _, commit := range commitSites(pass, fl.Decl) {
			region := fl.SuccessRegion(commit)
			if !incrementsAny(region, counters) {
				pass.Reportf(commit.Pos(),
					"linearization point commit in %s increments none of its declared telemetry counters (%s) on the success path",
					funcKey(fl.Decl), strings.Join(counters, ", "))
			}
		}
		for _, c := range counters {
			if !incrementsAny([]ast.Stmt{fl.Decl.Body}, []string{c}) {
				pass.Reportf(fl.Decl.Name.Pos(),
					"%s declares telemetry counter %s but never increments it: the outcome class is un-counted and the conservation law cannot balance",
					funcKey(fl.Decl), c)
			}
		}
		if timed[funcKey(fl.Decl)] {
			checkTimed(pass, fl.Decl, counters)
		}
	}
	return nil, nil
}

// checkTimed enforces the Timed half of an obligation: the function
// stamps `start` and every flush of a declared counter carries it (see
// the package comment for the bulk-Add exception).
func checkTimed(pass *framework.Pass, fd *ast.FuncDecl, counters []string) {
	key := funcKey(fd)
	stamped := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name == "start" {
				stamped = true
			}
		}
		return !stamped
	})
	if !stamped {
		pass.Reportf(fd.Name.Pos(),
			"%s is a timed obligation but never stamps start: its latency samples cannot exist",
			key)
		return
	}
	needLatency := false
	hasLatency := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if calleeName(call) == "Latency" && mentionsStart(call) {
			hasLatency = true
		}
		if !mentionsCounter(call, counters) {
			return true
		}
		if mentionsStart(call) {
			return true
		}
		if calleeName(call) == "Add" {
			// Bulk bookkeeping: latency flushes through a companion
			// Latency(..., start) call, checked below.
			needLatency = true
			return true
		}
		pass.Reportf(call.Pos(),
			"counter flush in timed obligation %s does not carry the start stamp: the outcome is counted but never timed",
			key)
		return true
	})
	if needLatency && !hasLatency {
		pass.Reportf(fd.Name.Pos(),
			"%s moves counters through Add but has no Latency(..., start) flush: the batch outcome is counted but never timed",
			key)
	}
}

// calleeName is the called function's bare name (selector or ident).
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return f.Sel.Name
	case *ast.Ident:
		return f.Name
	}
	return ""
}

// mentionsStart reports whether any argument mentions the identifier
// `start`.
func mentionsStart(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "start" {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// mentionsCounter reports whether any argument mentions
// `telemetry.<c>` for a declared counter c.
func mentionsCounter(call *ast.CallExpr, counters []string) bool {
	for _, arg := range call.Args {
		found := false
		ast.Inspect(arg, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || base.Name != "telemetry" {
				return true
			}
			for _, c := range counters {
				if sel.Sel.Name == c {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// commitSites returns the commit-capable calls inside fd that carry a
// linearization-point annotation on their line or the line above.
func commitSites(pass *framework.Pass, fd *ast.FuncDecl) []*ast.CallExpr {
	file := pass.Fset.Position(fd.Pos()).Filename
	lines := map[int]bool{}
	for _, f := range pass.Files {
		tf := pass.Fset.File(f.Pos())
		if tf == nil || tf.Name() != file {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(strings.ToLower(text), annotation) {
					continue
				}
				line := pass.Fset.Position(c.Pos()).Line
				lines[line] = true
				lines[line+1] = true
			}
		}
	}
	var sites []*ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if !commitNames[name] && !strings.HasPrefix(name, "CompareAndSwap") {
			return true
		}
		if lines[pass.Fset.Position(call.Pos()).Line] {
			sites = append(sites, call)
		}
		return true
	})
	return sites
}

// incrementsAny reports whether the statements contain a call whose
// arguments mention `telemetry.<c>` for any counter c.
func incrementsAny(region []ast.Stmt, counters []string) bool {
	found := false
	for _, s := range region {
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					sel, ok := a.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					base, ok := ast.Unparen(sel.X).(*ast.Ident)
					if !ok || base.Name != "telemetry" {
						return true
					}
					for _, c := range counters {
						if sel.Sel.Name == c {
							found = true
							return false
						}
					}
					return true
				})
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// funcKey identifies a declaration the way the obligation table spells
// it: "Recv.Method" for methods (pointer receivers without the star), a
// bare name otherwise.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
