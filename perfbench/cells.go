package main

import (
	"fmt"
	"time"

	"bento/internal/core"
	"bento/internal/filebench"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/xv6/bentoimpl"
)

// kind says how a cell's virtual throughput is read for the v_* metrics.
type kind int

const (
	opCell      kind = iota // Ops per virtual second
	byteCell                // MB per virtual second
	untarCell               // 1 / virtual seconds of the whole extraction
	upgradeCell             // Bento hot swap: reports the pause only
)

// outcome is what one workload call returned.
type outcome struct {
	res filebench.Result
	up  core.UpgradeStats // upgrade cells only
}

// cell is one benchmark cell: a fresh target from harness.NewTarget
// driven by one filebench workload function. run passes pre on as the
// workload's PreMeasure hook where the function has one; that call ends
// set-up and starts the measured window. Without a hook, only NewTarget
// counts as set-up.
type cell struct {
	name    string
	variant string
	kind    kind
	opts    harness.Options
	dirty   int64 // Mount.SetDirtyLimit pages; 0 keeps the default
	// verify names a file whose leading bytes must read back as the
	// fill pattern with the given period after the cell (empty: none).
	verify       string
	verifyPeriod int64
	run          func(tg filebench.Target, pre func(int64)) (outcome, error)
}

// local reports whether o mounts the local NVMe model.
func local(o harness.Options) bool { return o.Backend != harness.BackendNetstore }

// xv6 reports whether the cell's file system uses the xv6 layout, which
// layout.Fsck can check.
func (c *cell) xv6() bool { return c.variant != harness.VariantExt4 }

// Workload names, in the order BENCHMARK.json lists them.
const (
	wlWarmRead  = "warm-read"
	wlFsyncMeta = "fsync-meta"
	wlStreamRW  = "stream-rw"
	wlObjstore  = "objstore"
)

var workloadNames = []string{wlWarmRead, wlFsyncMeta, wlStreamRW, wlObjstore}

// baseOptions is the device geometry every cell mounts: a 128 MiB
// device with 4096 inodes under the default cost model, iodaemon and
// data bypass on. The small device keeps the per-cell fsck short.
func baseOptions() harness.Options {
	o := harness.Quick()
	o.DevBlocks = 32768
	o.NInodes = 4096
	return o
}

// objstoreOptions mounts the object store at the netstore experiment's
// LAN point (500 µs, 320 MB/s); lossy adds the lossy-LAN fault recipe
// (2% transient errors, 4x tail) keyed by the workload seed.
func objstoreOptions(seed int64, lossy bool) harness.Options {
	o := baseOptions()
	o.Backend = harness.BackendNetstore
	o.NetLat = 500 * time.Microsecond
	o.NetBWMBps = 320
	if lossy {
		o.NetErrProb = 0.02
		o.NetTailMult = 4
		o.NetFaultSeed = seed
	}
	return o
}

// window is the virtual measurement window of timed cells. Op caps
// (MaxOps) end most cells well before it, so host work per cell is set
// by each cell's cap.
const window = 10 * time.Second

// upgradeWindow is the virtual window of the hot-swap cells; they run
// uncapped so the mid-window swap always has load to straddle.
const upgradeWindow = 60 * time.Millisecond

// cellsFor builds the named workload's cells for one seed.
func cellsFor(workload string, seed int64) ([]cell, error) {
	switch workload {
	case wlWarmRead:
		return warmReadCells(seed), nil
	case wlFsyncMeta:
		return fsyncMetaCells(seed), nil
	case wlStreamRW:
		return streamRWCells(seed), nil
	case wlObjstore:
		return objstoreCells(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// patternPeriod is the period of the fill pattern prepared files carry.
const patternPeriod = 1 << 20

func readCell(variant string, o harness.Options, threads, ioSize int, fileSize, maxOps, seed int64) cell {
	return cell{
		name:    fmt.Sprintf("read-rnd-%dt-%dk", threads, ioSize>>10),
		variant: variant, kind: opCellFor(ioSize), opts: o,
		verify: "/readfile0", verifyPeriod: patternPeriod,
		run: func(tg filebench.Target, pre func(int64)) (outcome, error) {
			r, err := filebench.ReadMicro(tg, filebench.MicroConfig{
				Threads: threads, IOSize: ioSize, FileSize: fileSize, Random: true,
				Duration: window, MaxOps: maxOps, Seed: seed, PreMeasure: pre,
			})
			return outcome{res: r}, err
		},
	}
}

// opCellFor reads small-I/O cells as op rates and large ones as byte rates.
func opCellFor(ioSize int) kind {
	if ioSize >= 1<<20 {
		return byteCell
	}
	return opCell
}

// upgrade is the Bento hot swap under 2 readers and 2 writers: the same
// module, built with the mount's configuration, replaces itself mid-window.
func upgrade(o harness.Options, ioSize int, fileSize, seed int64) cell {
	return cell{
		name: fmt.Sprintf("upgrade-mix-2r2w-%dk", ioSize>>10), variant: harness.VariantBento,
		kind: upgradeCell, opts: o, dirty: 256,
		run: func(tg filebench.Target, _ func(int64)) (outcome, error) {
			shim, ok := tg.M.FS().(*core.BentoFS)
			if !ok {
				return outcome{}, fmt.Errorf("upgrade: mount is %T, not the Bento shim", tg.M.FS())
			}
			r, _, err := filebench.UpgradeMix(tg, filebench.UpgradeConfig{
				Readers: 2, Writers: 2, IOSize: ioSize, FileSize: fileSize,
				Duration: upgradeWindow, Seed: seed,
				Swap: func(task *kernel.Task) error {
					return shim.Upgrade(task, bentoimpl.New(bentoimpl.Config{
						Policy: bentoimpl.PolicyWriteBack, DataBypass: true,
					}))
				},
			})
			up := shim.LastUpgrade()
			if err == nil && up.Generation == 0 {
				err = fmt.Errorf("upgrade: swap never ran")
			}
			return outcome{res: r, up: up}, err
		},
	}
}

// warmReadCells: Figures 2/3 random reads from a resident working set,
// 4 KiB and 1 MiB at 1 and 32 threads, on every variant.
func warmReadCells(seed int64) []cell {
	o := baseOptions()
	var cs []cell
	for _, v := range harness.AllVariants {
		cs = append(cs,
			readCell(v, o, 1, 4<<10, 8<<20, 100000, seed),
			readCell(v, o, 32, 4<<10, 1<<20, 3000, seed),
			readCell(v, o, 1, 1<<20, 8<<20, 800, seed),
			readCell(v, o, 32, 1<<20, 2<<20, 30, seed),
		)
	}
	return append(cs, upgrade(o, 4<<10, 4<<20, seed))
}

// fsyncMetaCells: Tables 4-6 — creates with fsync, deletes, varmail,
// fileserver and untar on every variant, plus the §4.8 hot swap.
func fsyncMetaCells(seed int64) []cell {
	o := baseOptions()
	var cs []cell
	for _, v := range harness.AllVariants {
		for _, threads := range []int{1, 32} {
			maxOps := int64(800)
			if threads > 1 {
				maxOps = 30
			}
			cs = append(cs, cell{
				name: fmt.Sprintf("createfiles-%dt", threads), variant: v, kind: opCell, opts: o,
				run: func(tg filebench.Target, _ func(int64)) (outcome, error) {
					r, err := filebench.CreateFiles(tg, filebench.MetaConfig{
						Threads: threads, FileSize: 16 << 10, Duration: window, MaxOps: maxOps,
					})
					return outcome{res: r}, err
				},
			})
		}
		cs = append(cs,
			cell{
				name: "deletefiles-1t", variant: v, kind: opCell, opts: o,
				run: func(tg filebench.Target, _ func(int64)) (outcome, error) {
					r, err := filebench.DeleteFiles(tg, filebench.MetaConfig{
						Threads: 1, Files: 500, Duration: window,
					})
					return outcome{res: r}, err
				},
			},
			cell{
				name: "varmail-16t", variant: v, kind: opCell, opts: o,
				run: func(tg filebench.Target, pre func(int64)) (outcome, error) {
					r, err := filebench.Varmail(tg, filebench.MacroConfig{
						Threads: 16, Files: 16, Duration: window, MaxOps: 200, Seed: seed,
						PreMeasure: pre,
					})
					return outcome{res: r}, err
				},
			},
			cell{
				name: "fileserver-50t", variant: v, kind: opCell, opts: o,
				run: func(tg filebench.Target, pre func(int64)) (outcome, error) {
					r, err := filebench.Fileserver(tg, filebench.MacroConfig{
						Threads: 50, Files: 4, Duration: window, MaxOps: 50, Seed: seed,
						PreMeasure: pre,
					})
					return outcome{res: r}, err
				},
			},
			cell{
				name: "untar", variant: v, kind: untarCell, opts: o,
				run: func(tg filebench.Target, _ func(int64)) (outcome, error) {
					spec := filebench.DefaultUntarSpec()
					spec.Dirs = 24
					spec.Seed = seed
					r, err := filebench.Untar(tg, spec)
					return outcome{res: r}, err
				},
			},
		)
	}
	return append(cs, upgrade(o, 4<<10, 4<<20, seed))
}

// streamFile is the per-pass stream size: past every variant's buffer
// cache (ext4's is 32 MiB), so a cold pass reads the device.
const streamFile = 40 << 20

func streamRead(variant string, o harness.Options, threads int, total int64) cell {
	return cell{
		name: fmt.Sprintf("stream-read-%dt", threads), variant: variant, kind: byteCell,
		opts:   o,
		verify: "/stream0", verifyPeriod: patternPeriod,
		run: func(tg filebench.Target, pre func(int64)) (outcome, error) {
			r, err := filebench.StreamRead(tg, filebench.StreamConfig{
				Threads: threads, FileSize: total / int64(threads),
				TolerateIO: !local(o), PreMeasure: pre,
			})
			return outcome{res: r}, err
		},
	}
}

// streamRWCells: cold sequential reads (one and four streams), a
// sustained write with fsync, and Figure 4's 1 MiB random writes, on
// every variant, plus the hot swap under 1 MiB I/O.
func streamRWCells(seed int64) []cell {
	o := baseOptions()
	var cs []cell
	for _, v := range harness.AllVariants {
		cs = append(cs,
			streamRead(v, o, 1, streamFile),
			streamRead(v, o, 4, streamFile),
			cell{
				name: "stream-write-1t", variant: v, kind: byteCell, opts: o, dirty: 512,
				verify: "/wstream0", verifyPeriod: 128 << 10,
				run: func(tg filebench.Target, pre func(int64)) (outcome, error) {
					r, err := filebench.StreamWrite(tg, filebench.StreamConfig{
						Threads: 1, FileSize: streamFile, PreMeasure: pre,
					})
					return outcome{res: r}, err
				},
			},
		)
		for _, threads := range []int{1, 32} {
			fileSize, maxOps := int64(8<<20), int64(150)
			if threads > 1 {
				fileSize, maxOps = 2<<20, 6
			}
			cs = append(cs, cell{
				name: fmt.Sprintf("write-rnd-%dt-1024k", threads), variant: v, kind: byteCell,
				opts: o, dirty: 256,
				verify: "/writefile0", verifyPeriod: patternPeriod,
				run: func(tg filebench.Target, pre func(int64)) (outcome, error) {
					r, err := filebench.WriteMicro(tg, filebench.MicroConfig{
						Threads: threads, IOSize: 1 << 20, FileSize: fileSize, Random: true,
						Duration: window, MaxOps: maxOps, Seed: seed, PreMeasure: pre,
					})
					return outcome{res: r}, err
				},
			})
		}
	}
	return append(cs, upgrade(o, 1<<20, 8<<20, seed))
}

// objstoreWindow is the virtual window of the objstore read and
// varmail cells, which run uncapped.
const objstoreWindow = 3 * time.Second

// objstoreStream is the objstore cold stream: four times the object
// cache (64 objects of 64 KiB), so it streams from the store.
const objstoreStream = 16 << 20

// objstoreCells: warm 4 KiB reads, a cold stream and varmail on the
// object store under the lossy-LAN condition; an I/O error the client
// cannot retry away would count as a failed operation (TolerateIO).
// The hot swap runs on the object store with faults off, because
// UpgradeMix does not absorb I/O errors.
//
// There is no blackout: with one in the measured window the circuit
// breaker opens on some seeds and not others, so operations fail and
// goodput swings several-fold from seed to seed.
func objstoreCells(seed int64) []cell {
	o := objstoreOptions(seed, true)
	var cs []cell
	for _, v := range harness.AllVariants {
		cs = append(cs,
			cell{
				name: "read-seq-1t-4k", variant: v, kind: opCell, opts: o,
				run: func(tg filebench.Target, pre func(int64)) (outcome, error) {
					r, err := filebench.ReadMicro(tg, filebench.MicroConfig{
						Threads: 1, IOSize: 4 << 10, FileSize: 4 << 20,
						Duration: objstoreWindow, Seed: seed, TolerateIO: true, PreMeasure: pre,
					})
					return outcome{res: r}, err
				},
			},
			streamRead(v, o, 1, objstoreStream),
			cell{
				name: "varmail-16t", variant: v, kind: opCell, opts: o,
				run: func(tg filebench.Target, pre func(int64)) (outcome, error) {
					r, err := filebench.Varmail(tg, filebench.MacroConfig{
						Threads: 16, Files: 16, Duration: objstoreWindow, Seed: seed,
						TolerateIO: true, PreMeasure: pre,
					})
					return outcome{res: r}, err
				},
			},
		)
	}
	return append(cs, upgrade(objstoreOptions(seed, false), 4<<10, 1<<20, seed))
}
