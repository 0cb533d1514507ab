package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bento/internal/filebench"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/trace"
	"bento/internal/vclock"
	"bento/internal/xv6/layout"
)

// cellOut is one executed cell: its virtual result and the host cost of
// each phase. Host costs are process CPU seconds (see cpuNow).
type cellOut struct {
	c        *cell
	out      outcome
	mountS   float64 // in harness.NewTarget
	prepS    float64 // from mount to PreMeasure (0 without a hook)
	measureS float64 // in the measured window
	checkS   float64 // in the correctness checks
	allocs   uint64  // heap allocations in the measured window
	counters map[string]int64
	err      error // workload error or failed correctness check
}

// sig is the cell's virtual-time signature: everything the simulated
// run reports, which must repeat exactly across runs of one seed.
func (co *cellOut) sig() string {
	r := co.out.res
	return fmt.Sprintf("%s/%s ops=%d bytes=%d elapsed=%d errs=%d pause=%d xfer=%d",
		co.c.variant, co.c.name, r.Ops, r.Bytes, int64(r.Elapsed), r.Errs,
		co.out.up.PauseNS, co.out.up.TransferBytes)
}

// passOut is one run of every cell of a workload.
type passOut struct {
	cells []cellOut
	wallS float64 // wall-clock seconds of the whole pass
	cpuS  float64 // process CPU seconds of the whole pass
}

// passMode selects what a pass records besides host time.
type passMode struct {
	traceDir string // non-empty: Options.Metrics + TraceDir, traces written here
}

// runPass runs every cell once, one at a time.
func runPass(cells []cell, mode passMode) passOut {
	start, cstart := time.Now(), cpuNow()
	p := passOut{cells: make([]cellOut, len(cells))}
	for i := range cells {
		p.cells[i] = runCell(&cells[i], mode)
	}
	p.wallS = time.Since(start).Seconds()
	p.cpuS = (cpuNow() - cstart).Seconds()
	return p
}

func runCell(c *cell, mode passMode) cellOut {
	co := cellOut{c: c}
	o := c.opts
	if mode.traceDir != "" {
		o.Metrics = true
		o.TraceDir = mode.traceDir
	}
	// Start every cell from a collected heap, so one cell's garbage is
	// not collected on the next cell's clock and peak memory does not
	// depend on where the collector happened to run.
	runtime.GC()
	var ms runtime.MemStats
	t0 := cpuNow()
	tg, err := harness.NewTarget(c.variant, o)
	tMount := cpuNow()
	co.mountS = (tMount - t0).Seconds()
	if err != nil {
		co.err = fmt.Errorf("%s %s: mount: %w", c.variant, c.name, err)
		return co
	}
	if c.dirty > 0 {
		tg.M.SetDirtyLimit(c.dirty)
	}
	runtime.ReadMemStats(&ms)
	mallocs0, tPre := ms.Mallocs, cpuNow()
	pre := func(int64) {
		runtime.ReadMemStats(&ms)
		mallocs0, tPre = ms.Mallocs, cpuNow()
	}
	out, err := c.run(tg, pre)
	tEnd := cpuNow()
	runtime.ReadMemStats(&ms)
	co.out = out
	co.allocs = ms.Mallocs - mallocs0
	co.prepS = (tPre - tMount).Seconds()
	co.measureS = (tEnd - tPre).Seconds()
	if err != nil {
		co.err = fmt.Errorf("%s %s: %w", c.variant, c.name, err)
		return co
	}
	if rec := tg.K.Recorder(); rec != nil {
		co.counters = rec.Counters()
		path := filepath.Join(mode.traceDir, fmt.Sprintf("%s_%s.trace.json", c.variant, c.name))
		if err := rec.WriteFile(path, trace.Meta{Experiment: "perfbench", Variant: c.variant, Cell: c.name}); err != nil {
			co.err = fmt.Errorf("%s %s: writing trace: %w", c.variant, c.name, err)
			return co
		}
	}
	co.err = check(c, tg, out.res)
	co.checkS = (cpuNow() - tEnd).Seconds()
	return co
}

// check verifies a cell's outputs: local cells must see no I/O error,
// the verified file must read back its pattern from the device, and a
// local xv6 file system must unmount and pass fsck.
func check(c *cell, tg filebench.Target, r filebench.Result) error {
	if !local(c.opts) {
		return nil
	}
	if r.Errs != 0 {
		return fmt.Errorf("%s %s: %d failed operations on the local backend", c.variant, c.name, r.Errs)
	}
	task := tg.K.NewTask("check")
	if c.verify != "" {
		if err := tg.M.Sync(task); err != nil {
			return fmt.Errorf("%s %s: sync: %w", c.variant, c.name, err)
		}
		tg.M.DropCaches()
		if err := verifyPattern(tg, task.Clk, c.verify, c.verifyPeriod); err != nil {
			return fmt.Errorf("%s %s: %w", c.variant, c.name, err)
		}
	}
	if err := tg.K.Unmount(task, "/"); err != nil {
		return fmt.Errorf("%s %s: unmount: %w", c.variant, c.name, err)
	}
	if !c.xv6() {
		return nil
	}
	rep, err := layout.Fsck(vclock.NewClock(), tg.M.Device())
	if err != nil {
		return fmt.Errorf("%s %s: fsck: %w", c.variant, c.name, err)
	}
	if !rep.OK() {
		return fmt.Errorf("%s %s: fsck: %s", c.variant, c.name, strings.Join(rep.Errors, "; "))
	}
	return nil
}

// patternBytes is n bytes of the fill pattern filebench writes, which
// repeats with the given period: byte i of each period is i*31.
func patternBytes(n int, period int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((int64(i) % period) * 31)
	}
	return b
}

// verifyBytes bounds how much of a verified file is read back.
const verifyBytes = 4 << 20

// verifyPattern reads the leading bytes of path and compares them with
// the fill pattern.
func verifyPattern(tg filebench.Target, clk *vclock.Clock, path string, period int64) error {
	task := tg.K.NewTaskWithClock("verify", clk)
	f, err := tg.M.Open(task, path, fsapi.ORdonly)
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	defer tg.M.Close(task, f)
	n := min(f.Size(), verifyBytes)
	got := make([]byte, n)
	if _, err := f.PRead(task, got, 0); err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	if !bytes.Equal(got, patternBytes(int(n), period)) {
		return fmt.Errorf("verify %s: contents differ from the written pattern", path)
	}
	return nil
}

// variantKey is the lowercase variant name metric names use.
func variantKey(v string) string { return strings.ToLower(v) }

// throughput is the cell's virtual figure of merit for the v_* metrics.
func (co *cellOut) throughput() float64 {
	r := co.out.res
	switch co.c.kind {
	case byteCell:
		return r.MBps()
	case untarCell:
		if r.Elapsed <= 0 {
			return 0
		}
		return 1 / r.Elapsed.Seconds()
	}
	return r.OpsPerSec()
}

// endToEnd reduces a pass to the end-to-end metrics.
func endToEnd(p passOut) map[string]float64 {
	m := map[string]float64{"wall_s": p.wallS, "cpu_s": p.cpuS}
	var setup, measure float64
	var ops, errs int64
	var allocs uint64
	logs := map[string][]float64{}
	for i := range p.cells {
		co := &p.cells[i]
		setup += co.mountS + co.prepS
		measure += co.measureS
		ops += co.out.res.Ops
		errs += co.out.res.Errs
		allocs += co.allocs
		if co.c.kind == upgradeCell {
			m["v_upgrade_pause_ms"] = float64(co.out.up.PauseNS) / 1e6
			continue
		}
		k := "v_" + strings.ReplaceAll(variantKey(co.c.variant), "-", "")
		logs[k] = append(logs[k], math.Log(co.throughput()))
	}
	m["setup_s"] = setup
	m["vops_per_host_s"] = float64(ops) / measure
	m["allocs_per_vop"] = float64(allocs) / float64(ops)
	m["ok_frac"] = float64(ops) / float64(ops+errs)
	for k, ls := range logs {
		var s float64
		for _, l := range ls {
			s += l
		}
		m[k] = math.Exp(s / float64(len(ls)))
	}
	return m
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
