// Dequetop is a polling terminal dashboard over the Prometheus text
// exposition (deque.PrometheusHandler): live per-deque and
// per-scheduler operation rates and latency quantiles, rendered
// top-style in place.
//
//	dequetop -url http://localhost:8080/metrics [-interval 1s] [-once]
//
// Each frame fetches the endpoint, diffs counters against the previous
// frame for rates, and prints one row per registered deque end plus one
// per scheduler latency kind.  Latency columns (p50/p99/p999, from the
// WithLatency histograms' quantile gauges) show "-" for components
// registered without latency enabled — the dashboard degrades to a rate
// monitor.  -once prints a single frame without clearing the screen,
// for scripts and smoke tests.
//
// The endpoint is whatever the observed process mounted: the serving
// binaries mount serve.ExpositionMux, which serves /metrics (see
// cmd/dequeserve and examples/worksteal -listen).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

var (
	urlFlag      = flag.String("url", "http://localhost:8080/metrics", "Prometheus text exposition endpoint to poll")
	intervalFlag = flag.Duration("interval", time.Second, "polling interval")
	onceFlag     = flag.Bool("once", false, "print one frame and exit (no screen clearing)")
)

func main() {
	flag.Parse()
	client := &http.Client{Timeout: 10 * time.Second}

	var prev scrape
	var prevAt time.Time
	for {
		cur, err := fetch(client, *urlFlag)
		now := time.Now()
		if err != nil {
			fmt.Fprintf(os.Stderr, "dequetop: %v\n", err)
			if *onceFlag {
				os.Exit(1)
			}
			time.Sleep(*intervalFlag)
			continue
		}
		var b strings.Builder
		render(&b, cur, prev, now.Sub(prevAt))
		if !*onceFlag {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: redraw in place
		}
		fmt.Print(b.String())
		if *onceFlag {
			return
		}
		prev, prevAt = cur, now
		time.Sleep(*intervalFlag)
	}
}

// sample is one exposition sample's labels and value.
type sample struct {
	labels map[string]string
	value  float64
}

// scrape is one fetch of the exposition: its samples by metric name
// (a histogram's series keep their _bucket, _sum and _count suffixes).
type scrape map[string][]sample

// fetch scrapes the endpoint and parses the exposition.
func fetch(client *http.Client, url string) (scrape, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parse(string(body)), nil
}

// parse reads the text exposition format: one `name{labels} value`
// sample per line.  Comments (# HELP, # TYPE) and anything that does
// not parse are skipped (forward compatibility with new line shapes).
func parse(text string) scrape {
	s := scrape{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		if name, sm, ok := parseSample(line); ok {
			s[name] = append(s[name], sm)
		}
	}
	return s
}

// parseSample splits one sample line into its name, labels and value.
// Label values are unescaped as the format escapes them: \\, \" and \n.
// A trailing timestamp is ignored.
func parseSample(line string) (string, sample, bool) {
	sm := sample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", sm, false
	}
	name, rest := line[:i], line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			key, after, ok := strings.Cut(rest, `="`)
			if !ok || key == "" {
				return "", sm, false
			}
			var val strings.Builder
			j := 0
			for ; j < len(after) && after[j] != '"'; j++ {
				if after[j] != '\\' {
					val.WriteByte(after[j])
					continue
				}
				if j++; j == len(after) {
					return "", sm, false
				}
				switch after[j] {
				case '\\', '"':
					val.WriteByte(after[j])
				case 'n':
					val.WriteByte('\n')
				default:
					return "", sm, false
				}
			}
			if j == len(after) {
				return "", sm, false
			}
			sm.labels[key] = val.String()
			rest = strings.TrimPrefix(after[j+1:], ",")
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", sm, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", sm, false
	}
	sm.value = v
	return name, sm, true
}

// sum adds the values of the name samples whose labels include every
// given pair — PromQL's sum by — and reports whether any matched.
func (s scrape) sum(name string, match ...string) (float64, bool) {
	var total float64
	found := false
next:
	for _, sm := range s[name] {
		for i := 0; i+1 < len(match); i += 2 {
			if sm.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += sm.value
		found = true
	}
	return total, found
}

// count is sum for integer-valued counters.
func (s scrape) count(name string, match ...string) uint64 {
	v, _ := s.sum(name, match...)
	return uint64(v)
}

// labelValues returns the distinct values of one label across a
// family's samples, sorted.
func (s scrape) labelValues(name, label string) []string {
	set := map[string]bool{}
	for _, sm := range s[name] {
		if v, ok := sm.labels[label]; ok {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// opsOf sums one end's completed operations (the four outcome classes).
func opsOf(s scrape, name, end string) uint64 {
	var n uint64
	for _, c := range []string{"pushes", "pops", "full_hits", "empty_hits"} {
		n += s.count("dcasdeque_ops_total", "deque", name, "end", end, "counter", c)
	}
	return n
}

// rate renders a per-second delta, or "-" when no previous frame exists.
func rate(cur, prev uint64, elapsed time.Duration) string {
	if elapsed <= 0 || elapsed > 24*time.Hour {
		return "-"
	}
	if cur < prev {
		return "-" // counter reset (component re-registered)
	}
	return fmt.Sprintf("%.0f", float64(cur-prev)/elapsed.Seconds())
}

// dur renders one quantile gauge (seconds) as a compact duration, "-"
// when the histogram is absent or empty.
func dur(s scrape, family, q string, present bool, match ...string) string {
	if !present {
		return "-"
	}
	v, _ := s.sum(family, append(match, "quantile", q)...)
	return time.Duration(math.Round(v * 1e9)).Round(10 * time.Nanosecond).String()
}

// render draws one frame: a deque table (one row per end) and a
// scheduler table (one row per lifecycle latency kind).
func render(b *strings.Builder, cur, prev scrape, elapsed time.Duration) {
	deques := cur.labelValues("dcasdeque_ops_total", "deque")
	scheds := cur.labelValues("dcasdeque_sched_events_total", "sched")
	fmt.Fprintf(b, "dequetop  %s  deques=%d scheds=%d\n\n",
		time.Now().Format("15:04:05"), len(deques), len(scheds))

	if len(deques) > 0 {
		fmt.Fprintf(b, "%-20s %-6s %10s %10s %10s %10s %10s %10s %10s\n",
			"DEQUE", "END", "OPS", "OPS/S", "RETRIES", "P50", "P99", "P999", "SPIN-P99")
		for _, n := range deques {
			for _, end := range []string{"left", "right"} {
				l := []string{"deque", n, "end", end}
				hasLat := cur.count("dcasdeque_op_latency_seconds_count", l...) > 0
				hasSpin := cur.count("dcasdeque_op_spin_latency_seconds_count", l...) > 0
				const q = "dcasdeque_op_latency_quantile_seconds"
				fmt.Fprintf(b, "%-20s %-6s %10d %10s %10d %10s %10s %10s %10s\n",
					n, end,
					opsOf(cur, n, end),
					rate(opsOf(cur, n, end), opsOf(prev, n, end), elapsed),
					cur.count("dcasdeque_ops_total", append(l, "counter", "retries")...),
					dur(cur, q, "0.5", hasLat, l...),
					dur(cur, q, "0.99", hasLat, l...),
					dur(cur, q, "0.999", hasLat, l...),
					dur(cur, "dcasdeque_op_spin_latency_quantile_seconds", "0.99", hasSpin, l...))
			}
		}
		b.WriteByte('\n')
	}

	if len(scheds) > 0 {
		fmt.Fprintf(b, "%-20s %10s %10s %10s %10s %10s\n",
			"SCHED", "RUNS", "RUNS/S", "STEALS", "PARKS", "WAKES")
		for _, n := range scheds {
			ev := func(s scrape, event string) uint64 {
				return s.count("dcasdeque_sched_events_total", "sched", n, "event", event)
			}
			fmt.Fprintf(b, "%-20s %10d %10s %10d %10d %10d\n",
				n, ev(cur, "runs"), rate(ev(cur, "runs"), ev(prev, "runs"), elapsed),
				ev(cur, "steals"), ev(cur, "parks"), ev(cur, "wakes"))
			for _, kind := range []string{"submit_run", "steal_run", "park_wake"} {
				l := []string{"sched", n, "kind", kind}
				cnt, tracked := cur.sum("dcasdeque_sched_latency_seconds_count", l...)
				if !tracked {
					continue
				}
				const q = "dcasdeque_sched_latency_quantile_seconds"
				has := cnt > 0
				fmt.Fprintf(b, "  %-18s %10d %10s %10s %10s %10s\n",
					kind, uint64(cnt), "",
					dur(cur, q, "0.5", has, l...), dur(cur, q, "0.99", has, l...), dur(cur, q, "0.999", has, l...))
			}
		}
	}
	if len(deques) == 0 && len(scheds) == 0 {
		b.WriteString("no registered deques or schedulers at this endpoint\n")
	}
}
