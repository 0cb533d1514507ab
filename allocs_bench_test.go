// BenchmarkAllocs is the allocation-budget suite: steady-state Go
// allocations per operation on the warm hot paths, per (variant × op)
// cell. Unlike the virtual-time benchmarks above, the figure of merit
// here is the host-side allocs/op column of -benchmem — GC pressure is
// host behaviour, the one axis the virtual clock cannot see. The
// contract (enforced by cmd/allocgate against ALLOC_budget.json in CI):
// warm-cache-hit reads and stats allocate nothing; writes and
// creates stay within a small fixed budget. The Device rows carry the
// contract down to the storage tier: steady-state writes and flushes on
// the local backend and on netstore allocate nothing either.
//
// Run:
//
//	go test -run '^$' -bench '^BenchmarkAllocs' -benchmem
//
// Regenerate the budget after an intentional change:
//
//	go test -run '^$' -bench '^BenchmarkAllocs' -benchmem | \
//	    go run ./cmd/allocgate -update ALLOC_budget.json
package bento

import (
	"fmt"
	"strconv"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/filebench"
	"bento/internal/fsapi"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/netstore"
	"bento/internal/vclock"
)

// allocVariants are the rows of the allocation budget. The three
// in-kernel variants carry the zero-alloc warm-path contract; FUSE is
// measured too (its per-op request marshaling is part of the paper's
// asymmetry) but only gated against its own checked-in budget.
var allocVariants = []string{
	harness.VariantBento,
	harness.VariantCKernel,
	harness.VariantExt4,
	harness.VariantFUSE,
}

// allocTarget mounts a fresh variant for alloc measurement.
func allocTarget(b *testing.B, variant string) (filebench.Target, *kernel.Task) {
	b.Helper()
	o := harness.Quick()
	tg, err := harness.NewTarget(variant, o)
	if err != nil {
		b.Fatal(err)
	}
	return tg, tg.K.NewTask("allocbench")
}

// warmFile creates path with pages pages of data and reads it once so
// every page is cache-resident.
func warmFile(b *testing.B, tg filebench.Target, task *kernel.Task, path string, pages int) {
	b.Helper()
	data := make([]byte, pages*fsapi.PageSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := tg.M.WriteFile(task, path, data); err != nil {
		b.Fatal(err)
	}
	if _, err := tg.M.ReadFile(task, path); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllocs(b *testing.B) {
	for _, variant := range allocVariants {
		b.Run(variant, func(b *testing.B) {
			b.Run("read4k", func(b *testing.B) { benchAllocRead(b, variant) })
			b.Run("stat", func(b *testing.B) { benchAllocStat(b, variant) })
			b.Run("lookup", func(b *testing.B) { benchAllocLookup(b, variant) })
			b.Run("write4k", func(b *testing.B) { benchAllocWrite(b, variant) })
			b.Run("create", func(b *testing.B) { benchAllocCreate(b, variant) })
		})
	}
	b.Run("Device", func(b *testing.B) {
		b.Run("local-rewrite", benchAllocLocalRewrite)
		b.Run("netstore-miss-flush", benchAllocNetstoreMissFlush)
	})
}

// benchAllocLocalRewrite measures the local backend's write cache at
// steady state: each op rewrites an already-durable block, and every
// 64th op is followed by a FLUSH. A rewrite is the block's first write
// since the last FLUSH, so it copies-on-write into a buffer that a
// FLUSH recycled.
func benchAllocLocalRewrite(b *testing.B) {
	const blocks, every = 1024, 64
	dev := blockdev.MustNew(blockdev.Config{Name: "allocdev", Blocks: blocks, Model: costmodel.Default()})
	clk := vclock.NewClock()
	buf := make([]byte, dev.BlockSize())
	write := func(i int) {
		if err := dev.Write(clk, i%blocks, buf); err != nil {
			b.Fatal(err)
		}
		if i%every == every-1 {
			if err := dev.Flush(clk); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Make every block durable, then rewrite one flush interval so the
	// free list holds an interval's worth of superseded buffers.
	const warm = blocks + every
	for i := 0; i < warm; i++ {
		write(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write(warm + i)
	}
}

// benchAllocNetstoreMissFlush measures netstore's write-miss and flush
// cycle: each op writes one block of an object that is durable but not
// resident, with the cache full of clean objects, then flushes. A
// cyclic walk over twice the cache capacity misses every time, so each
// op loads an object into an evicted one and PUTs it in place.
func benchAllocNetstoreMissFlush(b *testing.B) {
	const objs = 2 * netstore.DefaultCacheObjects
	const step = netstore.DefaultObjectBlocks
	model := costmodel.Default()
	dev := blockdev.MustNew(blockdev.Config{
		Name: "allocnet", Blocks: objs * step, Model: model,
		Backend: netstore.New(netstore.Config{Name: "allocnet", BlockSize: 4096, Blocks: objs * step, Model: model}),
	})
	clk := vclock.NewClock()
	buf := make([]byte, dev.BlockSize())
	op := func(i int) {
		if err := dev.Write(clk, (i%objs)*step, buf); err != nil {
			b.Fatal(err)
		}
		if err := dev.Flush(clk); err != nil {
			b.Fatal(err)
		}
	}
	// One pass makes every object durable and leaves the cache full of
	// clean objects.
	for i := 0; i < objs; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(objs + i)
	}
}

// benchAllocRead measures warm-cache-hit 4K reads: every page of the
// file is resident, so the loop exercises page-cache lookup + copy only.
func benchAllocRead(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant)
	const pages = 256 // 1 MiB working file
	warmFile(b, tg, task, "/readfile", pages)
	f, err := tg.M.Open(task, "/readfile", fsapi.ORdonly)
	if err != nil {
		b.Fatal(err)
	}
	defer tg.M.Close(task, f)
	buf := make([]byte, fsapi.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if _, err := f.PRead(task, buf, off); err != nil {
			b.Fatal(err)
		}
		off += fsapi.PageSize
		if off >= pages*fsapi.PageSize {
			off = 0
		}
	}
}

// benchAllocStat measures a warm stat: the dentry is cached and the
// vnode resident, so the loop is dcache hit + GetAttr.
func benchAllocStat(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant)
	warmFile(b, tg, task, "/statfile", 1)
	if _, err := tg.M.Stat(task, "/statfile"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.M.Stat(task, "/statfile"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAllocLookup measures a warm multi-component path walk (three
// dcache hits per op).
func benchAllocLookup(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant)
	if err := tg.M.Mkdir(task, "/lkdir"); err != nil {
		b.Fatal(err)
	}
	if err := tg.M.Mkdir(task, "/lkdir/sub"); err != nil {
		b.Fatal(err)
	}
	warmFile(b, tg, task, "/lkdir/sub/file", 1)
	if _, err := tg.M.Stat(task, "/lkdir/sub/file"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.M.Stat(task, "/lkdir/sub/file"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAllocWrite measures steady-state 4K overwrites of a warm file:
// pages are resident and repeatedly re-dirtied, so the loop pays page
// lookup + copy + dirty tracking, plus the amortized background
// write-back the dirty budget forces.
func benchAllocWrite(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant)
	const pages = 256
	warmFile(b, tg, task, "/writefile", pages)
	f, err := tg.M.Open(task, "/writefile", fsapi.ORdwr)
	if err != nil {
		b.Fatal(err)
	}
	defer tg.M.Close(task, f)
	buf := make([]byte, fsapi.PageSize)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var off int64
	for i := 0; i < b.N; i++ {
		if _, err := f.PWrite(task, buf, off); err != nil {
			b.Fatal(err)
		}
		off += fsapi.PageSize
		if off >= pages*fsapi.PageSize {
			off = 0
		}
	}
}

// benchAllocCreate measures the create+unlink pair (create, write one
// page, fsync, close, unlink) — the journaled metadata path. Deleting
// each file keeps the namespace and inode table at steady state no
// matter how large b.N grows.
func benchAllocCreate(b *testing.B, variant string) {
	tg, task := allocTarget(b, variant)
	if err := tg.M.Mkdir(task, "/createdir"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, fsapi.PageSize)
	// Pre-build the path names so the loop measures the kernel path, not
	// the benchmark's own string formatting. Names cycle over a fixed
	// window: the file is unlinked each iteration, so reuse is safe.
	const nameWindow = 1024
	names := make([]string, nameWindow)
	for i := range names {
		names[i] = "/createdir/f" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := names[i%nameWindow]
		f, err := tg.M.Open(task, p, fsapi.OCreate|fsapi.OWronly)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Write(task, payload); err != nil {
			b.Fatal(err)
		}
		if err := f.FSync(task); err != nil {
			b.Fatal(err)
		}
		if err := tg.M.Close(task, f); err != nil {
			b.Fatal(err)
		}
		if err := tg.M.Unlink(task, p); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt available for debugging helpers
