package kernel_test

import (
	"fmt"
	"testing"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/kernel"
	"bento/internal/memfs"
)

// newStatMount builds a mount whose cost model charges nothing, so the
// benchmark below times the host side of the dcache and vnode tables
// rather than the CPU-pool resource.
func newStatMount(b *testing.B) (*kernel.Kernel, *kernel.Mount) {
	b.Helper()
	model := &costmodel.Model{DevChannels: 1}
	k := kernel.New(model)
	if err := k.Register(memfs.Type{}); err != nil {
		b.Fatal(err)
	}
	task := k.NewTask("setup")
	dev := blockdev.MustNew(blockdev.Config{Blocks: 16, Model: model})
	m, err := k.Mount(task, "memfs", "/mnt", dev)
	if err != nil {
		b.Fatal(err)
	}
	return k, m
}

// BenchmarkMountStat drives Stat calls over a pre-warmed tree: each
// operation is one dcache hit per path component plus one vnode-table
// probe, the lookups every benchmark cell makes on every operation.
func BenchmarkMountStat(b *testing.B) {
	const files = 256
	k, m := newStatMount(b)
	setup := k.NewTask("setup")
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%03d", i)
		if err := m.WriteFile(setup, paths[i], []byte("x")); err != nil {
			b.Fatal(err)
		}
		// Warm the dcache and vnode table so the measured loop is pure
		// lookup traffic.
		if _, err := m.Stat(setup, paths[i]); err != nil {
			b.Fatal(err)
		}
	}
	task := k.NewTask("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Stat(task, paths[i%files]); err != nil {
			b.Fatal(err)
		}
	}
}
