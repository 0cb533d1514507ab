package harness

import (
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"bento/internal/filebench"
)

// StartProfiles begins host-side pprof capture for a benchmark run. If
// cpuPath is non-empty, CPU profiling starts immediately and is written
// there. The returned stop function finishes the CPU profile and, if
// memPath is non-empty, writes the runtime "allocs" profile (allocation
// sites since process start — the view the zero-allocation work is
// tuned against) after a GC cycle settles live-heap accounting.
// Profiling observes the host only; virtual-time results are unaffected.
func StartProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	stop := func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				return err
			}
		}
		return nil
	}
	return stop, nil
}

// CellSpec is one benchmark cell of an experiment's declarative plan: a
// self-contained unit of work that builds its own kernel, device, and
// clocks (via NewTarget inside Run) and shares no mutable state with any
// other cell. That isolation is what makes cell-level host parallelism
// deterministic by construction: cells may execute in any order, on any
// number of host workers, and every virtual-time result is unchanged —
// only the assembly order (spec order) is ever observable in the output.
type CellSpec struct {
	Experiment string // figure/table id ("fig2", "stream")
	Variant    string // row ("Bento", "FUSE", ...)
	Better     string // Record.Better of the emitted record ("" or BetterExact)
	Run        func() (filebench.Result, error)
}

// CellOut is one executed cell: the virtual-time result plus the host
// wall-clock the cell took (informational; see Record.HostNS).
type CellOut struct {
	Result filebench.Result
	HostNS int64
}

// RunCells executes specs on up to parallel host workers (parallel <= 0
// means runtime.NumCPU()) and returns the outputs in spec order
// regardless of completion order. parallel == 1 runs the specs
// sequentially on the calling goroutine — exactly the pre-parallel
// harness. On error the first failing cell in spec order wins (among
// cells that had started); no new cells are dispatched after a failure.
func RunCells(specs []CellSpec, parallel int) ([]CellOut, error) {
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	if parallel > len(specs) {
		parallel = len(specs)
	}
	outs := make([]CellOut, len(specs))
	if parallel <= 1 {
		for i := range specs {
			start := time.Now()
			r, err := specs[i].Run()
			if err != nil {
				return nil, err
			}
			outs[i] = CellOut{Result: r, HostNS: time.Since(start).Nanoseconds()}
		}
		return outs, nil
	}

	var (
		next   atomic.Int64 // index of the next spec to claim
		failed atomic.Bool  // stop dispatching new cells after any error
		wg     sync.WaitGroup

		errMu    sync.Mutex
		firstErr error
		firstIdx = len(specs)
	)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) || failed.Load() {
					return
				}
				start := time.Now()
				r, err := specs[i].Run()
				if err != nil {
					errMu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					errMu.Unlock()
					failed.Store(true)
					return
				}
				outs[i] = CellOut{Result: r, HostNS: time.Since(start).Nanoseconds()}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return outs, nil
}

// groupByVariant reassembles executed cells into the per-variant slices
// the render functions and record emitters consume, plus each result's
// index into specs and outs. Spec order is variant-major within each
// experiment's historical loop structure, so appending in spec order
// reproduces exactly the ordering the inline nested loops used to build.
func groupByVariant(specs []CellSpec, outs []CellOut) (map[string][]filebench.Result, map[string][]int) {
	data := make(map[string][]filebench.Result)
	idx := make(map[string][]int)
	for i, s := range specs {
		data[s.Variant] = append(data[s.Variant], outs[i].Result)
		idx[s.Variant] = append(idx[s.Variant], i)
	}
	return data, idx
}

// ExperimentResult is one experiment's assembled output from RunMatrix.
type ExperimentResult struct {
	ID      string
	Text    string   // rendered table(s)
	Records []Record // machine-readable cells in deterministic order
	// CellHostNS sums the host wall-clock of this experiment's cells.
	// Under a shared pool cells of several experiments overlap, so this
	// is CPU-time-shaped (comparable across runs at equal parallelism),
	// not the experiment's wall-clock share.
	CellHostNS int64
}

// RunMatrix executes several experiments' cells on one shared host-worker
// pool (o.Parallel wide) and assembles each experiment's text and records
// in spec order, so the output is byte-identical at any parallelism.
// Flattening the specs across experiments means the pool never drains at
// an experiment boundary — the full matrix keeps every host core busy to
// the end.
func RunMatrix(ids []string, o Options) ([]ExperimentResult, error) {
	type entry struct {
		id     string
		p      *plan
		static string
		lo, hi int
	}
	entries := make([]entry, 0, len(ids))
	var flat []CellSpec
	for _, id := range ids {
		p, static, err := planFor(id, o)
		if err != nil {
			return nil, err
		}
		e := entry{id: id, p: p, static: static, lo: len(flat)}
		if p != nil {
			flat = append(flat, p.specs...)
		}
		e.hi = len(flat)
		entries = append(entries, e)
	}
	outs, err := RunCells(flat, o.Parallel)
	if err != nil {
		return nil, err
	}
	results := make([]ExperimentResult, 0, len(entries))
	for _, e := range entries {
		if e.p == nil {
			results = append(results, ExperimentResult{ID: e.id, Text: e.static})
			continue
		}
		cells := outs[e.lo:e.hi]
		data, idx := groupByVariant(e.p.specs, cells)
		er := ExperimentResult{ID: e.id, Text: e.p.render(data)}
		for _, v := range e.p.rows {
			for i, r := range data[v] {
				j := idx[v][i]
				er.Records = append(er.Records, Record{
					Experiment: e.id,
					Variant:    v,
					Cell:       r.Name,
					Ops:        r.Ops,
					Bytes:      r.Bytes,
					ElapsedNS:  int64(r.Elapsed),
					OpsPerSec:  r.OpsPerSec(),
					MBps:       r.MBps(),
					Errs:       r.Errs,
					Better:     e.p.specs[j].Better,
					Metrics:    r.Metrics,
					HostNS:     cells[j].HostNS,
				})
				er.CellHostNS += cells[j].HostNS
			}
		}
		results = append(results, er)
	}
	return results, nil
}

// runExperiment executes one experiment's plan and returns its rendered
// text plus the per-variant results (the shape the Fig2/Table4-style
// accessors and the determinism tests consume).
func runExperiment(id string, o Options) (string, map[string][]filebench.Result, error) {
	p, static, err := planFor(id, o)
	if err != nil {
		return "", nil, err
	}
	if p == nil {
		return static, nil, nil
	}
	outs, err := RunCells(p.specs, o.Parallel)
	if err != nil {
		return "", nil, err
	}
	data, _ := groupByVariant(p.specs, outs)
	return p.render(data), data, nil
}
