// Command perfbench is the repository's benchmark: it runs one named
// workload of simulated file-system cells through harness.NewTarget and
// the filebench workload functions, checks their outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output. See README.md.
//
//	bash perfbench/run.sh --workload warm-read --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given;
// heldOutSeed is kept out of tuning so later claims can be checked on it.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// minPasses is the fewest passes a run makes, so every host metric is a
// median of at least this many samples.
const minPasses = 3

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for claim checks: %d)", heldOutSeed))
	seconds := flag.Int("seconds", 15, "host seconds to keep repeating passes for")
	traced := flag.Int("trace", 0, "1: per-layer run (traced pass, profiles, layer probes)")
	workdir := flag.String("workdir", ".bench_build", "directory for traces and profiles")
	tracestat := flag.String("tracestat", "", "tracestat binary (required with --trace 1)")
	flag.Parse()

	cells, err := cellsFor(*workload, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("host: %s\n", hostStamp())
	var res result
	if *traced == 1 {
		res, err = perLayer(cells, *workdir, *tracestat)
	} else {
		res = endToEndRun(cells, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits names every end-to-end metric with its unit. wall_s is
// printed on each pass line but not reported: on a shared machine its
// run-to-run spread is wider than any bound the benchmark may set.
var endToEndUnits = map[string]string{
	"cpu_s":              "s",
	"setup_s":            "s",
	"vops_per_host_s":    "op/s",
	"allocs_per_vop":     "allocs/op",
	"max_rss_mib":        "MiB",
	"v_bento":            "geomean",
	"v_ckernel":          "geomean",
	"v_fuse":             "geomean",
	"v_ext4":             "geomean",
	"v_upgrade_pause_ms": "virtual_ms",
	"ok_frac":            "ratio",
}

// tally accumulates attempted and failed operations over passes, and
// compares every pass's virtual signatures with the first pass's.
type tally struct {
	res  result
	want []string
}

func newTally() *tally {
	return &tally{res: result{Correct: true, Metrics: map[string]metric{}}}
}

// add folds a pass in. A cell that errored, failed a check, or whose
// virtual result differs from the first pass counts its operations
// (at least one) as failed.
func (t *tally) add(p passOut) {
	first := t.want == nil
	for i := range p.cells {
		co := &p.cells[i]
		ops := co.out.res.Ops + co.out.res.Errs
		t.res.Attempted += max(ops, 1)
		bad := co.err
		if first {
			t.want = append(t.want, co.sig())
		} else if bad == nil && co.sig() != t.want[i] {
			bad = fmt.Errorf("virtual result changed between passes: %s, first pass %s", co.sig(), t.want[i])
		}
		if bad != nil {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %v\n", bad)
			t.res.Correct = false
			t.res.Failed += max(ops, 1)
		}
	}
}

// endToEndRun repeats passes for the given host time (at least
// minPasses) and reports the median of each metric over the passes.
func endToEndRun(cells []cell, budget time.Duration) result {
	t := newTally()
	samples := map[string][]float64{}
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		p := runPass(cells, passMode{})
		t.add(p)
		if n == 0 {
			printCells(p)
		}
		m := endToEnd(p)
		fmt.Printf("pass %d: %s\n", n+1, formatMetrics(m))
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
	}
	for name, unit := range endToEndUnits {
		if name == "max_rss_mib" {
			t.res.Metrics[name] = metric{Value: peakRSSMiB(), Unit: unit}
			continue
		}
		t.res.Metrics[name] = metric{Value: median(samples[name]), Unit: unit}
	}
	return t.res
}

// printCells lists each cell's virtual result and host phases.
func printCells(p passOut) {
	for i := range p.cells {
		co := &p.cells[i]
		r := co.out.res
		fmt.Printf("  %-9s %-22s ops=%-7d errs=%-5d v=%-12.6g mount=%.3fs prep=%.3fs measure=%.3fs check=%.3fs allocs/op=%.2f\n",
			co.c.variant, co.c.name, r.Ops, r.Errs, co.throughput(), co.mountS, co.prepS, co.measureS, co.checkS,
			float64(co.allocs)/float64(max(r.Ops, 1)))
	}
}

// formatMetrics renders a metric map as sorted name=value pairs.
func formatMetrics(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.6g", k, m[k])
	}
	return b.String()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostStamp describes the host a result was measured on.
func hostStamp() string {
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	})
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
