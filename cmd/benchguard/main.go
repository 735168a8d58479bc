// Command benchguard is the CI benchmark gate.  It compiles the
// benchmark package in the current directory once into a test binary,
// runs it for -count rounds of one sample per benchmark, and judges
// every -headgate on the medians: the candidate benchmark's median may
// exceed its reference's by at most the gate's own budget.
//
// Usage:
//
//	benchguard [-bench BenchmarkPublicAPI] [-benchtime 0.3s] [-count 5]
//	           -headgate candidate=reference@pct ...
//
// Both sides of a gate come from the same binary and the same rounds,
// so drift of the host over the run lands on both alike.  The flag
// repeats, so one run holds gates of different natures: the Chase–Lev
// abstraction cost at a tight budget and the latency-enabled twins
// (priced in EXPERIMENTS.md LATOBS) at theirs.  There is no comparison
// against an earlier revision: on a 2-vCPU host its A/A floor was above
// 10% on every cell (EXPERIMENTS.md HEADGATE), so it could not tell a
// regression from noise.
//
// It exits 0 when every gate holds, 1 when any gate exceeds its budget
// (every gate is still reported), and 2 on a usage, build or run error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

var (
	benchFlag     = flag.String("bench", "BenchmarkPublicAPI", "benchmark regexp to run")
	benchtimeFlag = flag.String("benchtime", "0.3s", "per-benchmark measurement time")
	countFlag     = flag.Int("count", 5, "rounds, one run per benchmark each (medians compared)")
	gates         []gate
)

func init() {
	flag.Func("headgate", "judge one benchmark against another, candidate=reference@pct (repeatable)",
		func(spec string) error {
			g, err := parseGate(spec)
			if err == nil {
				gates = append(gates, g)
			}
			return err
		})
}

// measure compiles the benchmark package into bin, then runs -count
// rounds of it and returns every ns/op sample by benchmark name.
func measure(bin string) (map[string][]float64, error) {
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("go test -c: %v", err)
	}
	samples := map[string][]float64{}
	for r := 0; r < *countFlag; r++ {
		var out bytes.Buffer
		cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", *benchFlag,
			"-test.benchtime", *benchtimeFlag, "-test.count", "1")
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("benchmark round %d: %v", r+1, err)
		}
		got, err := parseBench(&out)
		if err != nil {
			return nil, err
		}
		for n, xs := range got {
			samples[n] = append(samples[n], xs...)
		}
	}
	return samples, nil
}

func run() int {
	flag.Parse()
	if len(gates) == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no -headgate given, nothing to judge")
		return 2
	}
	tmp, err := os.MkdirTemp("", "benchguard-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	fmt.Printf("benchguard: bench %s (%d rounds × %s)\n", *benchFlag, *countFlag, *benchtimeFlag)
	samples, err := measure(filepath.Join(tmp, "bench.test"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		return 2
	}
	code := 0
	for _, g := range gates {
		line, pct, err := g.judge(samples)
		switch {
		case err != nil:
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			code = 2
		case pct > g.budget:
			fmt.Printf("%s\nbenchguard: FAIL — head gate %.2f%% exceeds %.1f%%\n", line, pct, g.budget)
			code = max(code, 1)
		default:
			fmt.Printf("%s\nbenchguard: ok — head gate %.2f%% within %.1f%%\n", line, pct, g.budget)
		}
	}
	return code
}

func main() { os.Exit(run()) }
