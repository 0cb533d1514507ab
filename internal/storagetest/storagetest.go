// Package storagetest is the shared conformance suite for
// blockdev.Backend implementations. Every backend — the local NVMe
// model, the netstore object tier, and whatever comes next — must pass
// the same battery: read-your-writes and zero-fill, flush as a
// durability barrier, the one-sided crash contract, seeded crash
// replay, power-cut semantics, virtual-time determinism, and the
// isolation of recycled buffers from durable state. Backend
// packages invoke it from their own tests:
//
//	func TestConformance(t *testing.T) {
//		storagetest.Run(t, func(blocks int) *blockdev.Device { ... })
//	}
//
// The suite drives backends only through the Device front, exactly as
// the file systems do, so it also pins the front/backend split: a
// backend that passes here behaves identically under validation, fault
// injection, and power-cut scheduling.
package storagetest

import (
	"bytes"
	"errors"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/vclock"
)

// Factory builds a fresh Device of the given geometry over the backend
// under test. Each call must return an independent instance (no shared
// durable state) with a cost model fixed across calls, so paired
// instances replay identically.
type Factory func(blocks int) *blockdev.Device

// Run executes the conformance suite against the factory's backend.
func Run(t *testing.T, factory Factory) {
	t.Run("ReadYourWrites", func(t *testing.T) { readYourWrites(t, factory) })
	t.Run("ZeroFill", func(t *testing.T) { zeroFill(t, factory) })
	t.Run("FlushDurability", func(t *testing.T) { flushDurability(t, factory) })
	t.Run("CrashOneSided", func(t *testing.T) { crashOneSided(t, factory) })
	t.Run("CrashKeepAll", func(t *testing.T) { crashKeepAll(t, factory) })
	t.Run("CrashReplay", func(t *testing.T) { crashReplay(t, factory) })
	t.Run("FlushBarrier", func(t *testing.T) { flushBarrier(t, factory) })
	t.Run("PowerCut", func(t *testing.T) { powerCut(t, factory) })
	t.Run("TimeDeterminism", func(t *testing.T) { timeDeterminism(t, factory) })
	t.Run("RecycledBuffer", func(t *testing.T) { recycledBuffer(t, factory) })
	t.Run("DurableCopyIsolated", func(t *testing.T) { durableCopyIsolated(t, factory) })
}

func fill(d *blockdev.Device, b byte) []byte {
	buf := make([]byte, d.BlockSize())
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func mustWrite(t *testing.T, d *blockdev.Device, clk *vclock.Clock, blk int, b byte) {
	t.Helper()
	if err := d.Write(clk, blk, fill(d, b)); err != nil {
		t.Fatalf("write blk %d: %v", blk, err)
	}
}

func mustRead(t *testing.T, d *blockdev.Device, clk *vclock.Clock, blk int) []byte {
	t.Helper()
	buf := make([]byte, d.BlockSize())
	if err := d.Read(clk, blk, buf); err != nil {
		t.Fatalf("read blk %d: %v", blk, err)
	}
	return buf
}

// readYourWrites: staged writes are visible to reads immediately, long
// before any flush.
func readYourWrites(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for blk := 0; blk < 64; blk += 7 {
		mustWrite(t, d, clk, blk, byte(blk+1))
	}
	for blk := 0; blk < 64; blk += 7 {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, fill(d, byte(blk+1))) {
			t.Fatalf("blk %d: staged write not visible", blk)
		}
	}
}

// zeroFill: never-written blocks read as zeros, including blocks that
// share an extent with written ones.
func zeroFill(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	mustWrite(t, d, clk, 8, 0xAA)
	for _, blk := range []int{0, 7, 9, 63} {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, make([]byte, d.BlockSize())) {
			t.Fatalf("blk %d: expected zeros, got %x...", blk, got[:4])
		}
	}
}

// flushDurability: everything staged before a flush survives a total
// write-cache loss (Crash with keepFraction 0).
func flushDurability(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for blk := 0; blk < 20; blk++ {
		mustWrite(t, d, clk, blk, byte(blk+1))
	}
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	if n := d.DirtyBlocks(); n != 0 {
		t.Fatalf("DirtyBlocks = %d after flush, want 0", n)
	}
	d.Crash(0, 1)
	for blk := 0; blk < 20; blk++ {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, fill(d, byte(blk+1))) {
			t.Fatalf("blk %d: flushed data lost in crash", blk)
		}
	}
}

// crashOneSided: the crash contract is one-sided. After Crash(0), a
// block written both before and after the last flush holds either its
// flushed value or its staged value — backends may harden staged data
// early (netstore's eviction PUTs) — but never a torn mix and never
// garbage.
func crashOneSided(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for blk := 0; blk < 16; blk++ {
		mustWrite(t, d, clk, blk, 0xAA)
	}
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	for blk := 0; blk < 16; blk++ {
		mustWrite(t, d, clk, blk, 0xBB)
	}
	d.Crash(0, 7)
	for blk := 0; blk < 16; blk++ {
		got := mustRead(t, d, clk, blk)
		if !bytes.Equal(got, fill(d, 0xAA)) && !bytes.Equal(got, fill(d, 0xBB)) {
			t.Fatalf("blk %d: torn or corrupt after crash: %x...", blk, got[:4])
		}
	}
}

// crashKeepAll: keepFraction 1 preserves every staged write.
func crashKeepAll(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for blk := 0; blk < 16; blk++ {
		mustWrite(t, d, clk, blk, byte(0x40+blk))
	}
	d.Crash(1, 99)
	for blk := 0; blk < 16; blk++ {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, fill(d, byte(0x40+blk))) {
			t.Fatalf("blk %d: staged write lost despite keepFraction=1", blk)
		}
	}
}

// crashReplay: a (seed, keepFraction) pair fully determines the
// post-crash image — two independent instances given the identical
// command sequence and crash land on identical contents.
func crashReplay(t *testing.T, f Factory) {
	image := func() [][]byte {
		d := f(64)
		clk := vclock.NewClock()
		for blk := 0; blk < 32; blk++ {
			mustWrite(t, d, clk, blk, 0x11)
		}
		if err := d.Flush(clk); err != nil {
			t.Fatal(err)
		}
		for blk := 0; blk < 32; blk += 2 {
			mustWrite(t, d, clk, blk, 0x22)
		}
		d.Crash(0.5, 1234)
		out := make([][]byte, 32)
		for blk := range out {
			out[blk] = mustRead(t, d, clk, blk)
		}
		return out
	}
	a, b := image(), image()
	for blk := range a {
		if !bytes.Equal(a[blk], b[blk]) {
			t.Fatalf("blk %d: crash replay diverged across instances", blk)
		}
	}
}

// flushBarrier: a flush's completion never precedes the completion of
// any write staged before it, and a task's virtual time is monotone
// through the whole sequence.
func flushBarrier(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	var lastSubmit int64
	for blk := 0; blk < 8; blk++ {
		done, err := d.Submit(clk, blk, fill(d, byte(blk+1)))
		if err != nil {
			t.Fatal(err)
		}
		if done > lastSubmit {
			lastSubmit = done
		}
	}
	if n := d.DirtyBlocks(); n <= 0 {
		t.Fatalf("DirtyBlocks = %d with staged writes, want > 0", n)
	}
	before := clk.NowNS()
	if err := d.Flush(clk); err != nil {
		t.Fatal(err)
	}
	if clk.NowNS() < before {
		t.Fatal("flush moved virtual time backwards")
	}
	if clk.NowNS() < lastSubmit {
		t.Fatalf("flush completed at %d, before staged write completion %d", clk.NowNS(), lastSubmit)
	}
}

// powerCut: the n-th write-class command after arming is the last to
// succeed; afterwards every command fails with ErrPowerLoss until
// power is restored, and restoring power alone does not lose flushed
// data.
func powerCut(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	mustWrite(t, d, clk, 0, 0xAA)
	d.ArmPowerCut(2)
	mustWrite(t, d, clk, 1, 0xBB)        // write-class 1 of 2
	if err := d.Flush(clk); err != nil { // write-class 2 of 2: the last to succeed
		t.Fatal(err)
	}
	if !d.PowerOut() {
		t.Fatal("power still on after the armed command count")
	}
	if err := d.Write(clk, 2, fill(d, 0xCC)); !errors.Is(err, blockdev.ErrPowerLoss) {
		t.Fatalf("write after cut: %v, want ErrPowerLoss", err)
	}
	if err := d.Read(clk, 0, make([]byte, d.BlockSize())); !errors.Is(err, blockdev.ErrPowerLoss) {
		t.Fatalf("read after cut: %v, want ErrPowerLoss", err)
	}
	d.Crash(0, 5)
	d.DisarmPowerCut()
	for blk, want := range map[int]byte{0: 0xAA, 1: 0xBB} {
		if got := mustRead(t, d, clk, blk); !bytes.Equal(got, fill(d, want)) {
			t.Fatalf("blk %d: flushed data lost across power cycle", blk)
		}
	}
	if got := mustRead(t, d, clk, 2); !bytes.Equal(got, make([]byte, d.BlockSize())) {
		t.Fatal("write issued after the cut left data behind")
	}
}

// timeDeterminism: completion times are a pure function of the command
// sequence — two instances running the same mixed read/write/flush
// workload finish at the same virtual instant with identical stats.
func timeDeterminism(t *testing.T, f Factory) {
	run := func() (int64, blockdev.Stats) {
		d := f(128)
		clk := vclock.NewClock()
		for i := 0; i < 100; i++ {
			blk := (i * 37) % 128
			switch i % 5 {
			case 0, 1, 2:
				mustWrite(t, d, clk, blk, byte(i))
			case 3:
				mustRead(t, d, clk, blk)
			case 4:
				if err := d.Flush(clk); err != nil {
					t.Fatal(err)
				}
			}
		}
		return clk.NowNS(), d.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("virtual end time diverged: %d vs %d", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("device stats diverged: %+v vs %+v", s1, s2)
	}
}

// recycledBuffer: a buffer a backend recycles carries nothing from its
// last owner into durable state or reads. Block 1 is rewritten after a
// flush and flushed again, which supersedes its first durable buffer;
// a sweep of never-written blocks then cycles clean extents through any
// small cache (each lands in a recycled slot and must read zeros), and
// block b2's first write lands in a recycled buffer. A keep-nothing
// crash leaves block 1 at its last flushed value and b2 at zeros; a
// keep-everything crash keeps b2's write.
func recycledBuffer(t *testing.T, f Factory) {
	const b1, b2 = 1, 44
	for _, keep := range []float64{0, 1} {
		d := f(64)
		clk := vclock.NewClock()
		mustWrite(t, d, clk, b1, 0xA1)
		if err := d.Flush(clk); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, d, clk, b1, 0xB1)
		if err := d.Flush(clk); err != nil {
			t.Fatal(err)
		}
		for blk := b1 + 1; blk < 64; blk++ {
			if got := mustRead(t, d, clk, blk); !bytes.Equal(got, make([]byte, d.BlockSize())) {
				t.Fatalf("never-written blk %d reads %x..., want zeros", blk, got[:4])
			}
		}
		mustWrite(t, d, clk, b2, 0xC2)
		d.Crash(keep, 3)
		if got := mustRead(t, d, clk, b1); !bytes.Equal(got, fill(d, 0xB1)) {
			t.Fatalf("keep=%v: blk %d reads %x..., want its last flushed value", keep, b1, got[:4])
		}
		want := make([]byte, d.BlockSize())
		if keep == 1 {
			want = fill(d, 0xC2)
		}
		if got := mustRead(t, d, clk, b2); !bytes.Equal(got, want) {
			t.Fatalf("keep=%v: blk %d reads %x..., want %x...", keep, b2, got[:4], want[:4])
		}
	}
}

// durableCopyIsolated: writing a block again after a flush never
// reaches the durable copy that flush made, even when the backend
// refreshes durable state in place. The working set is one block, so
// no backend is under cache pressure to harden the last write early
// (which the one-sided crash contract would allow).
func durableCopyIsolated(t *testing.T, f Factory) {
	d := f(64)
	clk := vclock.NewClock()
	for _, b := range []byte{0xA1, 0xA2} {
		mustWrite(t, d, clk, 5, b)
		if err := d.Flush(clk); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(t, d, clk, 5, 0xB1)
	d.Crash(0, 11)
	if got := mustRead(t, d, clk, 5); !bytes.Equal(got, fill(d, 0xA2)) {
		t.Fatalf("blk 5 reads %x... after crash, want the flushed 0xa2", got[:4])
	}
}
