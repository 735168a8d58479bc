// Command dequemodel runs the explicit-state model checker over the two
// deque algorithms, discharging the paper's proof obligations (Section 5)
// on bounded instances by exhaustive enumeration.  It reports state
// counts, linearization points checked, and the coverage of the scenario
// figures (Figure 6 steal, Figure 16 two-sided delete contention).
//
// Usage:
//
//	dequemodel [-algo array|list|chaselev|both|all] [-threads 2|3] [-solo] [-dcas atomic|endlock]
//
// -dcas endlock (with -algo array) expands each of the array algorithm's
// DCASes into the steps of dcas.EndLock, the array deque's default
// provider, and also checks the emulation's own obligations; the default
// models DCAS as one atomic step, as the paper does.
//
// The output starts with one "env: num_cpu=… gomaxprocs=… go=…" line,
// as dequestress and dequesoak print, so a recorded certificate carries
// the host it was earned on.
//
// Exit status: 0 when every obligation holds, 1 when the checker finds a
// violation, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"dcasdeque/internal/metrics"
	"dcasdeque/internal/verify/model"
)

// explore is the model-checker entry point; a variable so tests can
// substitute a stub and exercise the violation exit path without
// enumerating a real state space.
var explore = model.Explore

// config is the parsed command line.
type config struct {
	algo    string
	threads int
	solo    bool
	endLock bool // -dcas endlock: the array DCAS as EndLock's steps
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("dequemodel", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.algo, "algo", "all", "algorithm to check: array, list, chaselev, both (array+list), all")
	fs.IntVar(&cfg.threads, "threads", 2, "concurrent single-op threads per scenario (2 or 3)")
	fs.BoolVar(&cfg.solo, "solo", true, "also check solo termination (the non-blocking property; deadlock freedom while a thread waits on an EndLock mark)")
	dcasModel := fs.String("dcas", "atomic", "how the array algorithm's DCAS is modelled: atomic (one step) or endlock (dcas.EndLock's steps; needs -algo array)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch *dcasModel {
	case "atomic":
	case "endlock":
		if cfg.algo != "array" {
			return cfg, fmt.Errorf("dequemodel: -dcas endlock needs -algo array")
		}
		cfg.endLock = true
	default:
		return cfg, fmt.Errorf("dequemodel: -dcas must be atomic or endlock")
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("dequemodel: unexpected arguments %q", fs.Args())
	}
	if cfg.threads < 2 || cfg.threads > 3 {
		return cfg, fmt.Errorf("dequemodel: -threads must be 2 or 3")
	}
	switch cfg.algo {
	case "array", "list", "chaselev", "both", "all":
	default:
		return cfg, fmt.Errorf("dequemodel: -algo must be array, list, chaselev, both or all")
	}
	return cfg, nil
}

func allOps(base uint64) []model.OpSpec {
	return []model.OpSpec{
		{Kind: model.PushLeft, Arg: base},
		{Kind: model.PushRight, Arg: base + 1},
		{Kind: model.PopLeft},
		{Kind: model.PopRight},
	}
}

// progSets enumerates all single-op thread programs for n threads.
func progSets(n int) [][][]model.OpSpec {
	var out [][][]model.OpSpec
	var rec func(depth int, acc [][]model.OpSpec)
	rec = func(depth int, acc [][]model.OpSpec) {
		if depth == n {
			cp := make([][]model.OpSpec, n)
			copy(cp, acc)
			out = append(out, cp)
			return
		}
		for _, op := range allOps(uint64(10*(depth+1)) + 1) {
			rec(depth+1, append(acc, []model.OpSpec{op}))
		}
	}
	rec(0, nil)
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(stderr, err)
		}
		return 2
	}
	fmt.Fprintf(stdout, "env: num_cpu=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	opts := model.Options{CheckSolo: cfg.solo}
	ok := true
	if cfg.algo == "array" || cfg.algo == "both" || cfg.algo == "all" {
		ok = runArray(cfg, opts, stdout, stderr) && ok
	}
	if cfg.algo == "list" || cfg.algo == "both" || cfg.algo == "all" {
		ok = runList(cfg, opts, stdout, stderr) && ok
	}
	if cfg.algo == "chaselev" || cfg.algo == "all" {
		ok = runChaseLev(cfg, opts, stdout, stderr) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

func runArray(cfg config, opts model.Options, stdout, stderr io.Writer) bool {
	newSys := model.NewArraySys
	title := "== array-based algorithm (Theorem 3.1) =="
	if cfg.endLock {
		newSys = func(n int, initial []uint64, progs [][]model.OpSpec) model.Sys {
			return model.NewArraySysEndLock(n, initial, progs, true, true)
		}
		title = "== array-based algorithm (Theorem 3.1), DCAS expanded into dcas.EndLock's steps =="
	}
	t := metrics.NewTable("capacity", "fill", "scenarios", "states", "transitions", "linearizations", "violations")
	allOK := true
	for _, n := range []int{1, 2, 3} {
		for fill := 0; fill <= n && fill <= 2; fill++ {
			var initial []uint64
			for i := 0; i < fill; i++ {
				initial = append(initial, uint64(100+i))
			}
			var states, trans, lins, scenarios, bad int
			for _, progs := range progSets(cfg.threads) {
				scenarios++
				rep, v := explore(newSys(n, initial, progs), opts)
				states += rep.States
				trans += rep.Transitions
				lins += rep.Linearized
				if v != nil {
					bad++
					fmt.Fprintf(stderr, "array n=%d fill=%d: %v\n", n, fill, v)
					allOK = false
				}
			}
			t.AddRow(n, fill, scenarios, states, trans, lins, bad)
		}
	}
	fmt.Fprintln(stdout, title)
	fmt.Fprint(stdout, t.String())
	fmt.Fprintln(stdout)
	reportScenario(stdout, "Figure 6 (steal of the last item)",
		newSys(3, []uint64{7}, [][]model.OpSpec{{{Kind: model.PopLeft}}, {{Kind: model.PopRight}}}),
		opts, "pop-DCAS ok", "empty (steal)")
	return allOK
}

func runList(cfg config, opts model.Options, stdout, stderr io.Writer) bool {
	type start struct {
		name   string
		items  []uint64
		ld, rd bool
	}
	starts := []start{
		{name: "empty"},
		{name: "one", items: []uint64{100}},
		{name: "two", items: []uint64{100, 101}},
		{name: "rightDeletedEmpty", rd: true},
		{name: "leftDeletedEmpty", ld: true},
		{name: "twoDeletedEmpty", ld: true, rd: true},
		{name: "oneWithRightMark", items: []uint64{100}, rd: true},
		{name: "oneWithLeftMark", items: []uint64{100}, ld: true},
	}
	t := metrics.NewTable("start", "scenarios", "states", "transitions", "linearizations", "violations")
	allOK := true
	for _, st := range starts {
		var states, trans, lins, scenarios, bad int
		for _, progs := range progSets(cfg.threads) {
			scenarios++
			rep, v := explore(model.NewListSys(st.items, st.ld, st.rd, progs), opts)
			states += rep.States
			trans += rep.Transitions
			lins += rep.Linearized
			if v != nil {
				bad++
				fmt.Fprintf(stderr, "list start=%s: %v\n", st.name, v)
				allOK = false
			}
		}
		t.AddRow(st.name, scenarios, states, trans, lins, bad)
	}
	fmt.Fprintln(stdout, "== linked-list algorithm (Theorem 4.1) ==")
	fmt.Fprint(stdout, t.String())
	fmt.Fprintln(stdout)
	reportScenario(stdout, "Figure 16 (two-sided delete contention)",
		model.NewListSys(nil, true, true, [][]model.OpSpec{{{Kind: model.PopLeft}}, {{Kind: model.PopRight}}}),
		opts, "deleteRight: two-null ok", "deleteLeft: two-null ok")
	return allOK
}

// chaseLevProgSets enumerates the owner-pinned single-op programs for
// the Chase–Lev model: thread 0 (the owner) draws from pushRight and
// popRight, every other thread steals with popLeft — the backend's
// access contract, which the constructor enforces.
func chaseLevProgSets(n int) [][][]model.OpSpec {
	var out [][][]model.OpSpec
	for _, op := range []model.OpSpec{{Kind: model.PushRight, Arg: 11}, {Kind: model.PopRight}} {
		progs := [][]model.OpSpec{{op}}
		for len(progs) < n {
			progs = append(progs, []model.OpSpec{{Kind: model.PopLeft}})
		}
		out = append(out, progs)
	}
	return out
}

func runChaseLev(cfg config, opts model.Options, stdout, stderr io.Writer) bool {
	t := metrics.NewTable("fill", "scenarios", "states", "transitions", "linearizations", "violations")
	allOK := true
	for fill := 0; fill <= 4; fill++ {
		var initial []uint64
		for i := 0; i < fill; i++ {
			initial = append(initial, uint64(100+i))
		}
		var states, trans, lins, scenarios, bad int
		for _, progs := range chaseLevProgSets(cfg.threads) {
			scenarios++
			rep, v := explore(model.NewChaseLevSys(initial, progs), opts)
			states += rep.States
			trans += rep.Transitions
			lins += rep.Linearized
			if v != nil {
				bad++
				fmt.Fprintf(stderr, "chaselev fill=%d: %v\n", fill, v)
				allOK = false
			}
		}
		t.AddRow(fill, scenarios, states, trans, lins, bad)
	}
	fmt.Fprintln(stdout, "== Chase–Lev work-stealing deque (single-CAS, as published) ==")
	fmt.Fprint(stdout, t.String())
	fmt.Fprintln(stdout)
	reportScenario(stdout, "Chase–Lev one-element race (owner pop vs steal)",
		model.NewChaseLevSys([]uint64{7},
			[][]model.OpSpec{{{Kind: model.PopRight}}, {{Kind: model.PopLeft}}}),
		opts, "last-item CAS", "steal-CAS ok")
	return allOK
}

// reportScenario explores one figure scenario and reports whether the
// named outcomes were both observed.
func reportScenario(stdout io.Writer, title string, sys model.Sys, opts model.Options, want ...string) {
	rep, v := explore(sys, opts)
	fmt.Fprintf(stdout, "-- %s --\n", title)
	if v != nil {
		fmt.Fprintf(stdout, "  VIOLATION: %v\n", v)
		return
	}
	fmt.Fprintf(stdout, "  states=%d transitions=%d terminals=%d\n", rep.States, rep.Transitions, rep.Terminals)
	for _, w := range want {
		seen := 0
		for label, cnt := range rep.Events {
			if strings.Contains(label, w) {
				seen += cnt
			}
		}
		fmt.Fprintf(stdout, "  outcome %-32q observed in %d transitions\n", w, seen)
	}
	fmt.Fprintln(stdout)
}
