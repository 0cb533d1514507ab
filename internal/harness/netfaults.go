package harness

import (
	"fmt"
	"sync"
	"time"

	"bento/internal/costmodel"
	"bento/internal/filebench"
	"bento/internal/netstore"
)

// netfaultCond is one condition of the network-fault matrix: a latency
// preset plus a fault recipe. Each condition gets its own fault seed so
// the decision streams of different conditions are decorrelated.
type netfaultCond struct {
	name    string
	preset  netstorePreset
	errProb float64 // per-attempt transient-failure probability
	tail    int     // latency-tail multiplier (<=1 flat)
	outage  bool    // schedule a mid-run blackout (see outageWindow)
	seed    int64
}

// netfaultConds pins the published fault matrix. "clean" anchors the
// comparison (same preset as lossy-lan, faults off); the lossy points
// exercise retry and tail-latency absorption; "outage-recovery" runs a
// blackout across the middle half of the measurement window so the
// cells show degraded-mode serves during the outage and recovery after.
var netfaultConds = []netfaultCond{
	{name: "clean", preset: netstorePresets[0], seed: 101},
	{name: "lossy-lan", preset: netstorePresets[0], errProb: 0.02, tail: 4, seed: 102},
	{name: "lossy-wan", preset: netstorePresets[1], errProb: 0.05, tail: 4, seed: 103},
	{name: "outage-recovery", preset: netstorePresets[0], outage: true, seed: 104},
}

// netfaultVariants is the row set: the paper's module against its FUSE
// baseline — the fault story is about the storage bottom, so two
// variants keep the matrix readable.
var netfaultVariants = []string{VariantBento, VariantFUSE}

// nfOut is one memoized workload run: the goodput result plus the
// cell's final counter snapshot, from which the retry/degraded
// companion cells are derived.
type nfOut struct {
	res filebench.Result
	ctr map[string]int64
}

// netfaultsOptions specializes the base options for one condition.
func netfaultsOptions(o Options, c netfaultCond) Options {
	no := o
	no.Backend = BackendNetstore
	no.NetLat = c.preset.lat
	no.NetBWMBps = c.preset.bw
	no.NetErrProb = c.errProb
	no.NetTailMult = c.tail
	no.NetFaultSeed = c.seed
	if c.outage {
		// The blackout is armed at absolute virtual times via PreMeasure
		// (setup length varies per workload), not via NetOutageStart.
		// Policy constants shrink so the breaker's open → half-open →
		// close cycle fits inside a quick cell's 60ms window: two
		// attempts per request and a sub-millisecond backoff cap mean
		// the breaker opens within a few milliseconds of the blackout
		// and probes its way closed soon after it lifts.
		no.netFaultTune = func(fc *netstore.FaultConfig) {
			fc.MaxAttempts = 2
			fc.BreakerK = 2
		}
		no.netModelTune = func(m *costmodel.Model) {
			m.NetBackoffBase = 50 * time.Microsecond
			m.NetBackoffCap = 200 * time.Microsecond
		}
	}
	return no
}

// nfRun builds the memoized runner for one (condition, workload,
// variant) cell. The runner mounts the netstore target, arms the
// blackout if the condition calls for one, executes the workload with
// ErrIO-class failures tolerated (goodput accounting), and snapshots
// the trace counters. Metrics are forced on internally so the counter
// snapshot exists even in un-traced runs; the caller's o.Metrics still
// decides whether records carry them.
func nfRun(o Options, c netfaultCond, v string,
	workload func(tg filebench.Target, pre func(int64)) (filebench.Result, error),
) func() (nfOut, error) {
	return sync.OnceValues(func() (nfOut, error) {
		no := netfaultsOptions(o, c)
		no.Metrics = true
		tg, err := NewTarget(v, no)
		if err != nil {
			return nfOut{}, fmt.Errorf("netfaults %s %s: %w", c.name, v, err)
		}
		var pre func(int64)
		if c.outage {
			st := tg.M.Device().Backend().(*netstore.Store)
			d := int64(no.Duration)
			pre = func(startNS int64) {
				st.ArmOutage(startNS+d/4, startNS+3*d/4)
			}
		}
		r, err := workload(tg, pre)
		if err != nil {
			return nfOut{}, fmt.Errorf("netfaults %s %s: %w", c.name, v, err)
		}
		ctr := tg.K.Recorder().Counters()
		// Prefix before finishCell so per-condition trace files don't
		// collide on the bare workload name.
		r.Name = c.name + "-" + r.Name
		fo := no
		fo.Metrics = o.Metrics
		r, err = finishCell(tg, r, ExpNetfaults, v, fo)
		if err != nil {
			return nfOut{}, err
		}
		return nfOut{res: r, ctr: ctr}, nil
	})
}

// netfaultsPlan builds the network-fault scenario: for each variant and
// each condition in netfaultConds, the 4KB sequential read, the cold
// streaming read, and varmail run with I/O errors tolerated, so Ops
// counts successes (goodput) and Errs counts ops the fault layer could
// not save. Companion cells derive operational counters from the same
// run (upgradePlan's Ops-per-virtual-second encoding): lossy conditions
// publish net_retries per workload, and the outage condition publishes
// varmail's net_degraded — the serves (cached reads, staged writes)
// the store completed while the circuit breaker was open. A higher
// count is not better, so the companion specs are BetterExact.
func netfaultsPlan(o Options) *plan {
	fileSize := int64(o.StreamMB) << 20
	if fileSize <= 0 {
		fileSize = 32 << 20
	}
	if budget := int64(o.DevBlocks) * 4096 / 4; fileSize > budget {
		fileSize = budget
	}
	workloads := []struct {
		key string
		run func(o Options) func(tg filebench.Target, pre func(int64)) (filebench.Result, error)
	}{
		{"read4k", func(no Options) func(filebench.Target, func(int64)) (filebench.Result, error) {
			return func(tg filebench.Target, pre func(int64)) (filebench.Result, error) {
				return filebench.ReadMicro(tg, filebench.MicroConfig{
					Threads: 1, IOSize: 4096, FileSize: workingSet(no, 1),
					Duration: no.Duration, MaxOps: no.MaxOps, Seed: 1,
					TolerateIO: true, PreMeasure: pre,
				})
			}
		}},
		{"stream", func(Options) func(filebench.Target, func(int64)) (filebench.Result, error) {
			return func(tg filebench.Target, pre func(int64)) (filebench.Result, error) {
				return filebench.StreamRead(tg, filebench.StreamConfig{
					Threads: 1, FileSize: fileSize,
					TolerateIO: true, PreMeasure: pre,
				})
			}
		}},
		{"varmail", func(no Options) func(filebench.Target, func(int64)) (filebench.Result, error) {
			return func(tg filebench.Target, pre func(int64)) (filebench.Result, error) {
				return filebench.Varmail(tg, filebench.MacroConfig{
					Threads: 16, Files: no.MacroFiles, Duration: no.Duration,
					MaxOps: no.MaxOps, Seed: 3,
					TolerateIO: true, PreMeasure: pre,
				})
			}
		}},
	}
	derived := func(name string, ops int64) filebench.Result {
		return filebench.Result{Name: name, Ops: ops, Elapsed: time.Second}
	}
	vars := netfaultVariants
	var cols []string
	for _, c := range netfaultConds {
		cols = append(cols,
			c.name+"-read4k (kop/s)",
			c.name+"-stream (MB/s)",
			c.name+"-varmail (op/s)",
		)
	}
	var specs []CellSpec
	// extras collects the companion-cell accessors per variant in spec
	// order, for the operational-counter table under the goodput table.
	extras := make(map[string][]func() (filebench.Result, error))
	for _, v := range vars {
		for _, c := range netfaultConds {
			runs := make([]func() (nfOut, error), len(workloads))
			for i, wl := range workloads {
				runs[i] = nfRun(o, c, v, wl.run(o))
			}
			for i := range workloads {
				run := runs[i]
				specs = append(specs, CellSpec{Experiment: ExpNetfaults, Variant: v,
					Run: func() (filebench.Result, error) {
						out, err := run()
						return out.res, err
					}})
			}
			lossy := c.errProb > 0
			if lossy {
				for i, wl := range workloads {
					run, key := runs[i], c.name+"-"+wl.key+"-retries"
					cell := func() (filebench.Result, error) {
						out, err := run()
						if err != nil {
							return filebench.Result{}, err
						}
						return derived(key, out.ctr["net_retries"]), nil
					}
					specs = append(specs, CellSpec{Experiment: ExpNetfaults, Variant: v, Better: BetterExact, Run: cell})
					extras[v] = append(extras[v], cell)
				}
			}
			// FUSE's user-level cache absorbs the blackout before the
			// store's breaker ever opens, so its degraded count is a
			// constant zero — not a publishable cell.
			if c.outage && v == VariantBento {
				run, key := runs[2], c.name+"-varmail-degraded"
				cell := func() (filebench.Result, error) {
					out, err := run()
					if err != nil {
						return filebench.Result{}, err
					}
					return derived(key, out.ctr["net_degraded"]), nil
				}
				specs = append(specs, CellSpec{Experiment: ExpNetfaults, Variant: v, Better: BetterExact, Run: cell})
				extras[v] = append(extras[v], cell)
			}
		}
	}
	// Per-variant spec order: for each condition, the three goodput
	// cells, then that condition's companion cells. goodputIdx maps a
	// (condition, workload) pair to its index in data[v].
	goodputIdx := make([]int, 0, len(netfaultConds)*len(workloads))
	idx := 0
	for _, c := range netfaultConds {
		for range workloads {
			goodputIdx = append(goodputIdx, idx)
			idx++
		}
		if c.errProb > 0 {
			idx += len(workloads) // retries companions
		}
		if c.outage {
			idx++ // degraded companion
		}
	}
	return &plan{rows: vars, specs: specs, render: func(data map[string][]filebench.Result) string {
		s := Table("Netfaults scenario: goodput under deterministic network faults", cols, vars,
			func(r, c int) string {
				res := data[vars[r]][goodputIdx[c]]
				switch c % 3 {
				case 0:
					return fmt.Sprintf("%.1f", res.OpsPerSec()/1000)
				case 1:
					return fmt.Sprintf("%.1f", res.MBps())
				default:
					return fmt.Sprintf("%.0f", res.OpsPerSec())
				}
			})
		var ops []string
		seen := false
		for _, v := range vars {
			for _, cell := range extras[v] {
				if r, err := cell(); err == nil {
					if !seen {
						ops = append(ops, "Operational counters (per cell):")
						seen = true
					}
					ops = append(ops, fmt.Sprintf("  %-12s %-34s %d", v, r.Name, r.Ops))
				}
			}
		}
		if seen {
			s += "\n"
			for _, line := range ops {
				s += line + "\n"
			}
		}
		return s
	}}
}

// Netfaults runs the network-fault scenario (see netfaultsPlan).
func Netfaults(o Options) (string, map[string][]filebench.Result, error) {
	return runExperiment(ExpNetfaults, o)
}
