// Command benchguard is the CI benchmark gate: it runs the same
// microbenchmarks at the merge base and at HEAD and fails when HEAD is
// slower beyond a threshold.  Its purpose in this repository is to hold
// the disabled-telemetry contract — observability must cost a nil check,
// which this guard prices at no more than -threshold percent on the
// public push/pop path.
//
// Usage:
//
//	benchguard [-base origin/main] [-bench BenchmarkPublicAPI]
//	           [-benchtime 0.3s] [-count 5] [-threshold 5]
//	           [-headgate candidate=reference[@pct]] ...
//
// The base revision is materialized in a temporary git worktree, so the
// working tree (including uncommitted changes) is never disturbed.  Both
// sides are compiled once into test binaries, which then run -count
// rounds of one sample per benchmark each, alternating which side runs
// first, so drift of the host over the run lands on both sides alike
// instead of reading as a regression of whichever side ran second.
//
// A benchmark that is new in this PR has no base sample, so the
// base-vs-HEAD comparison reports it but cannot judge it.  -headgate
// closes that gap: it names two HEAD benchmarks, and the candidate's
// median must not exceed the reference's by more than the threshold —
// the same gate, anchored to a peer instead of history.  The flag
// repeats, and each gate may carry its own budget after @ (percent,
// default -threshold), so one run can hold gates of different natures:
// the abstraction-cost gate at the tight default and the latency-enabled
// twin (priced in EXPERIMENTS.md LATOBS) at its documented budget.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

var (
	baseFlag      = flag.String("base", "origin/main", "revision to compare against (its merge-base with HEAD is used)")
	benchFlag     = flag.String("bench", "BenchmarkPublicAPI", "benchmark regexp to run")
	benchtimeFlag = flag.String("benchtime", "0.3s", "per-benchmark measurement time")
	countFlag     = flag.Int("count", 5, "interleaved rounds, one run per benchmark and side each (medians compared)")
	thresholdFlag = flag.Float64("threshold", 5, "maximum allowed regression, percent")
	headgateFlag  multiFlag
)

func init() {
	flag.Var(&headgateFlag, "headgate",
		"judge one HEAD benchmark against another, candidate=reference[@pct] "+
			"(for benchmarks with no base sample; repeatable, per-gate budget after @)")
}

// multiFlag collects every occurrence of a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// git runs a git command and returns its trimmed stdout.
func git(args ...string) (string, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command("git", args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, errb.String())
	}
	return strings.TrimSpace(out.String()), nil
}

// side is one revision under test: its checkout, its compiled test
// binary and the samples its rounds have collected.
type side struct {
	name, dir, bin string
	samples        map[string][]float64
}

// build compiles the side's benchmark package into its test binary.
func (s *side) build() error {
	cmd := exec.Command("go", "test", "-c", "-o", s.bin, ".")
	cmd.Dir = s.dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchguard: go test -c in %s: %v", s.dir, err)
	}
	s.samples = map[string][]float64{}
	return nil
}

// round runs every configured benchmark once and adds the samples.
func (s *side) round() error {
	var out bytes.Buffer
	cmd := exec.Command(s.bin, "-test.run", "^$", "-test.bench", *benchFlag,
		"-test.benchtime", *benchtimeFlag, "-test.count", "1")
	cmd.Dir = s.dir
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchguard: %s benchmarks in %s: %v", s.name, s.dir, err)
	}
	got, err := parseBench(&out)
	if err != nil {
		return err
	}
	for n, xs := range got {
		s.samples[n] = append(s.samples[n], xs...)
	}
	return nil
}

// roundOrder is the order in which round r runs n sides: each round
// starts one side later than the one before.
func roundOrder(r, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = (r + i) % n
	}
	return order
}

// measure builds every side, then runs the interleaved rounds.
func measure(sides []*side) error {
	for _, s := range sides {
		if err := s.build(); err != nil {
			return err
		}
	}
	for r := 0; r < *countFlag; r++ {
		for _, i := range roundOrder(r, len(sides)) {
			if err := sides[i].round(); err != nil {
				return err
			}
		}
	}
	return nil
}

func run() int {
	flag.Parse()
	head, err := git("rev-parse", "HEAD")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	baseSHA, err := git("merge-base", *baseFlag, "HEAD")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	tmp, err := os.MkdirTemp("", "benchguard-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	headSide := &side{name: "HEAD", dir: ".", bin: filepath.Join(tmp, "head.test")}

	if baseSHA == head {
		fmt.Printf("benchguard: HEAD is the merge base (%s); nothing to compare\n", baseSHA[:12])
		if len(headgateFlag) == 0 {
			return 0
		}
		// The head gates need no base at all; run them on their own.
		if err := measure([]*side{headSide}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		return judgeHeadgates(headSide.samples)
	}

	worktree := filepath.Join(tmp, "base")
	if _, err := git("worktree", "add", "--detach", worktree, baseSHA); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() {
		if _, err := git("worktree", "remove", "--force", worktree); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	baseSide := &side{name: "base", dir: worktree, bin: filepath.Join(tmp, "base.test")}

	fmt.Printf("benchguard: base %s vs HEAD %s, bench %s (%d interleaved rounds × %s, threshold %.1f%%)\n",
		baseSHA[:12], head[:12], *benchFlag, *countFlag, *benchtimeFlag, *thresholdFlag)
	if err := measure([]*side{baseSide, headSide}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(baseSide.samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: base produced no benchmark results")
		return 2
	}

	lines, worst := compare(baseSide.samples, headSide.samples)
	for _, l := range lines {
		fmt.Println(l)
	}
	code := 0
	if worst > *thresholdFlag {
		fmt.Printf("benchguard: FAIL — worst regression %.2f%% exceeds %.1f%%\n", worst, *thresholdFlag)
		code = 1
	} else {
		fmt.Printf("benchguard: ok — worst regression %.2f%% within %.1f%%\n", worst, *thresholdFlag)
	}
	if hg := judgeHeadgates(headSide.samples); hg > code {
		code = hg
	}
	return code
}

// judgeHeadgates applies every -headgate candidate=reference[@pct]
// comparison to the HEAD samples and returns the process exit code
// contribution (the worst across gates).
func judgeHeadgates(head map[string][]float64) int {
	code := 0
	for _, spec := range headgateFlag {
		line, pct, budget, err := headgate(spec, *thresholdFlag, head)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			return 2
		}
		fmt.Println(line)
		if pct > budget {
			fmt.Printf("benchguard: FAIL — head gate %.2f%% exceeds %.1f%%\n", pct, budget)
			code = 1
		} else {
			fmt.Printf("benchguard: ok — head gate %.2f%% within %.1f%%\n", pct, budget)
		}
	}
	return code
}

func main() { os.Exit(run()) }
