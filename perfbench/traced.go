package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"bento/internal/harness"
)

// perLayerUnits names every per-layer metric with its unit. Metrics of a
// layer the workload does not run read 0.
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"vclock.yield32_ns":    "ns",
		"vclock.acquire_ns":    "ns",
		"host.mutex.vclock_ms": "ms",

		"lru.bcache_hit_ns":  "ns",
		"lru.bcache_miss_ns": "ns",
		"lru.buf_hit_ratio":  "ratio",

		"kernel.pread4k_ns":      "ns",
		"kernel.pread4k_allocs":  "allocs/op",
		"kernel.pread1m_ns":      "ns",
		"kernel.pwrite4k_ns":     "ns",
		"kernel.pwrite4k_allocs": "allocs/op",
		"kernel.stat_ns":         "ns",
		"kernel.page_hit_ratio":  "ratio",
		"kernel.op_p50_us":       "virtual_us",
		"kernel.op_p99_us":       "virtual_us",

		"iodaemon.ra_pages_per_batch":  "pages",
		"iodaemon.ra_skip_ratio":       "ratio",
		"iodaemon.flush_pages_per_run": "pages",
		"iodaemon.throttles_per_kop":   "1/kop",

		"blockdev.read_ns":         "ns",
		"blockdev.submit_ns":       "ns",
		"blockdev.submit_allocs":   "allocs/op",
		"blockdev.flush_ns":        "ns",
		"blockdev.reads_per_kop":   "1/kop",
		"blockdev.writes_per_kop":  "1/kop",
		"blockdev.flushes_per_kop": "1/kop",

		"netstore.get_ns":           "ns",
		"netstore.hit_ns":           "ns",
		"netstore.submit_ns":        "ns",
		"netstore.flush_ns":         "ns",
		"netstore.flush_allocs":     "allocs/op",
		"netstore.cache_hit_ratio":  "ratio",
		"netstore.puts_per_flush":   "puts",
		"netstore.retries_per_kop":  "1/kop",
		"netstore.hedges_per_kop":   "1/kop",
		"netstore.timeouts_per_kop": "1/kop",
		"netstore.degraded_per_kop": "1/kop",

		"xv6.commit_ns":             "ns",
		"ext4.commit_ns":            "ns",
		"journal.commits_per_kop":   "1/kop",
		"journal.blocks_per_commit": "blocks",
		"journal.absorbed_ratio":    "ratio",
		"journal.stalls_per_kop":    "1/kop",

		"fuse.roundtrip_ns":     "ns",
		"fuse.roundtrip_allocs": "allocs/op",
		"fuse.requests_per_op":  "req/op",
		"fuse.bytes_per_op":     "B/op",

		"core.upgrade_xfer_bytes": "B",
		"core.upgrade_stalls":     "count",

		"harness.mount_ms": "ms",
		"harness.prep_s":   "s",

		"trace.span_ns":       "ns",
		"trace.overhead_frac": "ratio",
	}
	for _, mod := range cpuModules {
		u["host.cpu."+mod] = "ratio"
	}
	for _, v := range harness.AllVariants {
		for _, cat := range []string{"syscall", "cache", "daemon", "device", "net", "journal", "app"} {
			u["vt."+cat+"."+variantKey(v)] = "ratio"
		}
	}
	u["vt.fuse.fuse"] = "ratio"
	u["vt.upgrade.bento"] = "ratio"
	return u
}()

// cpuModules are the host.cpu.* rows: the program's modules, by the
// innermost bento/internal/<module> frame of each CPU sample, plus three
// runtime rows (copying, zeroing, garbage collection).
var cpuModules = []string{
	"vclock", "lru", "kernel", "iodaemon", "blockdev", "netstore", "xv6", "ext4",
	"fuse", "core", "filebench", "memmove", "memclr", "gc",
}

// perLayer makes the traced run: an untraced pass, a pass with the
// virtual-time recorder on (traces reduced by tracestat), a pass under
// CPU and mutex profiles (reduced by go tool pprof), and the layer
// probes. Every pass must reproduce the first pass's virtual results.
func perLayer(cells []cell, workdir, tracestat string) (result, error) {
	if tracestat == "" {
		return result{}, fmt.Errorf("--trace 1 needs --tracestat")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return result{}, err
	}
	t := newTally()
	m := map[string]float64{}

	plain := runPass(cells, passMode{})
	t.add(plain)

	traceDir, err := os.MkdirTemp(workdir, "traces-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(traceDir)
	traced := runPass(cells, passMode{traceDir: traceDir})
	t.add(traced)
	m["trace.overhead_frac"] = traced.cpuS/plain.cpuS - 1
	if err := reduceTraces(m, tracestat, traceDir); err != nil {
		return result{}, err
	}
	reduceCounters(m, traced)

	profiled, err := profiledPass(m, cells, workdir)
	if err != nil {
		return result{}, err
	}
	t.add(profiled)

	var mounts []float64
	for i := range plain.cells {
		co := &plain.cells[i]
		mounts = append(mounts, co.mountS*1e3)
		m["harness.prep_s"] += co.prepS
	}
	m["harness.mount_ms"] = median(mounts)

	pm, err := probes()
	if err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	for k, v := range pm {
		m[k] = v
	}
	for name, unit := range perLayerUnits {
		t.res.Metrics[name] = metric{Value: m[name], Unit: unit}
	}
	for k := range m {
		if _, ok := perLayerUnits[k]; !ok {
			return result{}, fmt.Errorf("metric %q has no declared unit", k)
		}
	}
	return t.res, nil
}

// reduceTraces runs tracestat over the traced pass's files: the
// exclusive virtual time per category becomes vt.<category>.<variant>
// (a share of that variant's total span time), and the latency
// histogram with the most samples gives kernel.op_p50_us/op_p99_us.
func reduceTraces(m map[string]float64, tracestat, dir string) error {
	out, err := exec.Command(tracestat, "-hist", dir).Output()
	if err != nil {
		return fmt.Errorf("tracestat: %w", err)
	}
	cats := []string{"syscall", "cache", "journal", "device", "net", "daemon", "fuse", "upgrade", "app"}
	shares := map[string]float64{} // "<cat>.<variant>" -> ms
	totals := map[string]float64{} // variant -> ms
	bestN := -1
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case len(f) == 4+len(cats) && f[0] == "perfbench":
			v := variantKey(f[1])
			total, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				return fmt.Errorf("tracestat row %q: %w", line, err)
			}
			totals[v] += total
			for i, cat := range cats {
				pct, err := parsePct(f[4+i])
				if err != nil {
					return fmt.Errorf("tracestat row %q: %w", line, err)
				}
				shares[cat+"."+v] += pct / 100 * total
			}
		case strings.HasPrefix(line, "== ") && strings.Contains(line, " n="):
			n, p50, p99, err := parseHist(f)
			if err != nil {
				return fmt.Errorf("tracestat histogram %q: %w", line, err)
			}
			if n > bestN {
				bestN = n
				m["kernel.op_p50_us"], m["kernel.op_p99_us"] = p50, p99
			}
		}
	}
	if len(totals) == 0 {
		return fmt.Errorf("tracestat printed no breakdown rows")
	}
	for key, ms := range shares {
		cat, v, _ := strings.Cut(key, ".")
		name := "vt." + cat + "." + v
		if _, ok := perLayerUnits[name]; ok && totals[v] > 0 {
			m[name] = ms / totals[v]
		}
	}
	return nil
}

// parsePct reads a tracestat percentage cell ("12.3%" or "-").
func parsePct(s string) (float64, error) {
	if s == "-" {
		return 0, nil
	}
	return strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
}

// parseHist reads "== <variant> <op>: n=N p50=D p99=D max=D ==".
func parseHist(f []string) (n int, p50, p99 float64, err error) {
	for _, kv := range f {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch k {
		case "n":
			n, err = strconv.Atoi(v)
		case "p50":
			p50, err = parseDurUS(v)
		case "p99":
			p99, err = parseDurUS(v)
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return n, p50, p99, nil
}

// parseDurUS reads tracestat's duration format (ns, µs or ms) in µs.
func parseDurUS(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e3}, {"µs", 1}, {"ns", 1e-3}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}

// reduceCounters turns the traced pass's summed counters into the
// per-layer ratios. Counters cover each cell from mkfs on, so set-up
// traffic is included.
func reduceCounters(m map[string]float64, p passOut) {
	c := map[string]float64{}
	var ops, fuseOps float64
	for i := range p.cells {
		co := &p.cells[i]
		ops += float64(co.out.res.Ops)
		for k, v := range co.counters {
			c[k] += float64(v)
		}
		if co.c.variant == harness.VariantFUSE {
			fuseOps += float64(co.out.res.Ops)
			c["fuse_cell_requests"] += float64(co.counters["fuse_requests"])
			c["fuse_cell_bytes"] += float64(co.counters["fuse_bytes_in"] + co.counters["fuse_bytes_out"])
		}
		if co.c.kind == upgradeCell {
			m["core.upgrade_xfer_bytes"] = float64(co.out.up.TransferBytes)
			m["core.upgrade_stalls"] = float64(co.out.up.StalledOps)
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	kops := ops / 1000
	m["lru.buf_hit_ratio"] = ratio(c["buf_hits"], c["buf_hits"]+c["buf_misses"])
	m["kernel.page_hit_ratio"] = ratio(c["page_hits"], c["page_hits"]+c["page_misses"])
	m["iodaemon.ra_pages_per_batch"] = ratio(c["ra_fill_pages"], c["ra_batches"])
	m["iodaemon.ra_skip_ratio"] = ratio(c["ra_fill_skips"], c["ra_fill_pages"]+c["ra_fill_skips"])
	m["iodaemon.flush_pages_per_run"] = ratio(c["flush_pages"], c["flush_runs"])
	m["iodaemon.throttles_per_kop"] = ratio(c["throttles"], kops)
	m["blockdev.reads_per_kop"] = ratio(c["dev_reads"], kops)
	m["blockdev.writes_per_kop"] = ratio(c["dev_writes"], kops)
	m["blockdev.flushes_per_kop"] = ratio(c["dev_flushes"], kops)
	m["netstore.cache_hit_ratio"] = ratio(c["net_cache_hits"], c["net_cache_hits"]+c["net_cache_misses"])
	m["netstore.puts_per_flush"] = ratio(c["net_puts"], c["net_flushes"])
	m["netstore.retries_per_kop"] = ratio(c["net_retries"], kops)
	m["netstore.hedges_per_kop"] = ratio(c["net_hedges"], kops)
	m["netstore.timeouts_per_kop"] = ratio(c["net_timeouts"], kops)
	m["netstore.degraded_per_kop"] = ratio(c["net_degraded"], kops)
	m["journal.commits_per_kop"] = ratio(c["journal_commits"], kops)
	m["journal.blocks_per_commit"] = ratio(c["journal_blocks"], c["journal_commits"])
	m["journal.absorbed_ratio"] = ratio(c["journal_absorbed"], c["journal_blocks"]+c["journal_absorbed"])
	m["journal.stalls_per_kop"] = ratio(c["journal_stalls"], kops)
	m["fuse.requests_per_op"] = ratio(c["fuse_cell_requests"], fuseOps)
	m["fuse.bytes_per_op"] = ratio(c["fuse_cell_bytes"], fuseOps)
}

// profiledPass runs the cells under a CPU profile (harness.StartProfiles)
// and a mutex profile, then attributes CPU samples to modules and mutex
// delay to vclock.
func profiledPass(m map[string]float64, cells []cell, workdir string) (passOut, error) {
	cpuPath := filepath.Join(workdir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
	mutexPath := filepath.Join(workdir, fmt.Sprintf("mutex-%d.pprof", os.Getpid()))
	defer os.Remove(cpuPath)
	defer os.Remove(mutexPath)
	stop, err := harness.StartProfiles(cpuPath, "")
	if err != nil {
		return passOut{}, err
	}
	runtime.SetMutexProfileFraction(1)
	p := runPass(cells, passMode{})
	runtime.SetMutexProfileFraction(0)
	if err := stop(); err != nil {
		return passOut{}, err
	}
	if err := writeProfile("mutex", mutexPath); err != nil {
		return passOut{}, err
	}

	samples, err := pprofTraces(cpuPath, "cpu")
	if err != nil {
		return passOut{}, err
	}
	var total float64
	byMod := map[string]float64{}
	for _, s := range samples {
		total += s.value
		if mod := innermostModule(s.stack); mod != "" {
			byMod[mod] += s.value
		}
		switch leaf := s.stack[0]; {
		case leaf == "runtime.memmove":
			byMod["memmove"] += s.value
		case strings.HasPrefix(leaf, "runtime.memclr"):
			byMod["memclr"] += s.value
		}
		if inGC(s.stack) {
			byMod["gc"] += s.value
		}
	}
	for _, mod := range cpuModules {
		if total > 0 {
			m["host.cpu."+mod] = byMod[mod] / total
		}
	}

	delays, err := pprofTraces(mutexPath, "delay")
	if err != nil {
		return passOut{}, err
	}
	for _, s := range delays {
		if innermostModule(s.stack) == "vclock" {
			m["host.mutex.vclock_ms"] += s.value * 1e3
		}
	}
	return p, nil
}

func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sample is one pprof trace: its value in seconds and its stack, leaf
// first.
type sample struct {
	value float64
	stack []string
}

// pprofTraces runs `go tool pprof -traces` on a profile of this binary
// and parses its samples, valued by the named sample type.
func pprofTraces(path, sampleIndex string) ([]sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-sample_index="+sampleIndex, exe, path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", filepath.Base(path), err)
	}
	// Each sample is a separator line, then "<value> <leaf>", then one
	// caller per line; inlined frames carry an "(inline)" suffix.
	var samples []sample
	inSample := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inSample = false
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if !inSample {
			if v, ok := parseSeconds(f[0]); ok && len(f) >= 2 {
				samples = append(samples, sample{value: v, stack: []string{f[1]}})
				inSample = true
			}
			continue
		}
		last := &samples[len(samples)-1]
		last.stack = append(last.stack, f[0])
	}
	return samples, nil
}

// parseSeconds reads a pprof duration such as "10ms", "1.50s" or "250us".
func parseSeconds(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}

// innermostModule names the module of the innermost bento/internal frame
// ("xv6" for bento/internal/xv6/bentoimpl, "core" for core and bentoks).
func innermostModule(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "bento/internal/")
		if !ok {
			continue
		}
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/")
		if mod == "bentoks" {
			mod = "core"
		}
		return mod
	}
	return ""
}

// inGC reports whether a CPU sample was spent collecting garbage: the
// background mark workers, mark assists, or sweeping.
func inGC(stack []string) bool {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			fn == "runtime.bgsweep", fn == "runtime.bgscavenge", fn == "runtime.sweepone":
			return true
		}
	}
	return false
}
