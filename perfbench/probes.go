package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/fuse"
	"bento/internal/harness"
	"bento/internal/kernel"
	"bento/internal/netstore"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// probeRounds is how many times each probe loop runs; the median round
// is reported.
const probeRounds = 3

// cost is one probe round: host time and heap allocations per call.
type cost struct{ ns, allocs float64 }

// measure runs prep(i) then call(i) for i in [0, n), probeRounds times,
// and returns the median round's host time and heap allocations per
// call, counting call alone. prep may be nil.
func measure(n int, prep, call func(i int)) cost {
	var rounds []cost
	var ms runtime.MemStats
	for r := 0; r < probeRounds; r++ {
		var el time.Duration
		var allocs uint64
		if prep == nil {
			runtime.ReadMemStats(&ms)
			m0 := ms.Mallocs
			t0 := time.Now()
			for i := 0; i < n; i++ {
				call(i)
			}
			el = time.Since(t0)
			runtime.ReadMemStats(&ms)
			allocs = ms.Mallocs - m0
		} else {
			for i := 0; i < n; i++ {
				prep(i)
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				t0 := time.Now()
				call(i)
				el += time.Since(t0)
				runtime.ReadMemStats(&ms)
				allocs += ms.Mallocs - m0
			}
		}
		rounds = append(rounds, cost{
			ns:     float64(el.Nanoseconds()) / float64(n),
			allocs: float64(allocs) / float64(n),
		})
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].ns < rounds[j].ns })
	return rounds[len(rounds)/2]
}

// probes times each layer's public entry points from the benchmark's
// own loops and returns ns/op and allocs/op by metric name.
func probes() (map[string]float64, error) {
	m := map[string]float64{}
	model := costmodel.Default()
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// vclock: the scheduler round trip at 32 workers, and Resource
	// acquisition at the model's CPU, device-queue and network channel
	// counts.
	m["vclock.yield32_ns"] = yieldCost(32, 64000)
	res := []*vclock.Resource{
		vclock.NewResource("cpu", model.CPUs),
		vclock.NewResource("dev", model.DevChannels),
		vclock.NewResource("net", model.NetChannels),
	}
	m["vclock.acquire_ns"] = measure(300000, nil, func(i int) {
		res[i%len(res)].AcquireInfo(int64(i)*40, 100)
	}).ns

	// lru through the kernel buffer cache: a resident hot set, and a
	// cyclic scan of twice the capacity where every access misses.
	dev := blockdev.MustNew(blockdev.Config{Blocks: 32768, Model: model})
	task := kernel.New(model).NewTask("probe")
	hot := kernel.NewBufferCache(dev, model, kernel.DefaultBufferCacheCap)
	cold := kernel.NewBufferCache(dev, model, 4096)
	getRelease := func(bc *kernel.BufferCache, blk int) {
		bh, err := bc.Get(task, blk)
		if err != nil {
			fail(err)
			return
		}
		fail(bh.Release())
	}
	for blk := 0; blk < 8192; blk++ {
		getRelease(cold, blk)
	}
	m["lru.bcache_hit_ns"] = measure(200000, nil, func(i int) { getRelease(hot, i%1024) }).ns
	m["lru.bcache_miss_ns"] = measure(50000, nil, func(i int) { getRelease(cold, i%8192) }).ns

	// blockdev: the device front over the local backend. Submits flush
	// every 4096 blocks, so each takes the first-write-since-flush path
	// (a copy-on-write buffer); a timed flush makes 16 blocks durable.
	clk := vclock.NewClock()
	blk := make([]byte, 4096)
	submit := func(b int) {
		_, err := dev.Submit(clk, b%4096, blk)
		fail(err)
	}
	for b := 0; b < 4096; b++ {
		submit(b)
	}
	m["blockdev.read_ns"] = measure(100000, nil, func(i int) { fail(dev.Read(clk, i%4096, blk)) }).ns
	sub := measure(4096*25, nil, func(i int) {
		if i%4096 == 0 {
			fail(dev.Flush(clk))
		}
		submit(i)
	})
	m["blockdev.submit_ns"], m["blockdev.submit_allocs"] = sub.ns, sub.allocs
	m["blockdev.flush_ns"] = measure(2000, func(i int) {
		for b := 0; b < 16; b++ {
			submit(i*16 + b)
		}
	}, func(int) { fail(dev.Flush(clk)) }).ns

	fail(netstoreProbes(m, model))
	fail(fileProbes(m))

	// fuse: one READ round trip through the wire protocol — request
	// encode/decode, then a 4 KiB reply encode/decode.
	page := make([]byte, 4096)
	rt := measure(200000, nil, func(i int) {
		req, err := fuse.DecodeRequest(fuse.EncodeRequest(&fuse.Request{
			Op: fuse.OpRead, Unique: uint64(i), Nodeid: 7, Off: int64(i%256) * 4096, Size: 4096,
		}))
		if err != nil {
			fail(err)
			return
		}
		_, err = fuse.DecodeReply(fuse.EncodeReply(&fuse.Reply{
			Unique: req.Unique, Attr: fuse.WireAttr{Ino: req.Nodeid, Size: 1 << 20, Nlink: 1}, Data: page,
		}))
		fail(err)
	})
	m["fuse.roundtrip_ns"], m["fuse.roundtrip_allocs"] = rt.ns, rt.allocs

	// trace: one span into an enabled recorder.
	rec := trace.New()
	m["trace.span_ns"] = measure(100000, nil, func(i int) {
		rec.Span("probe", trace.CatSyscall, "read", int64(i), int64(i)+100)
	}).ns
	return m, firstErr
}

// yieldCost is the per-operation cost of n workers each advancing its
// clock and yielding to the deterministic scheduler.
func yieldCost(n, ops int) float64 {
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		sched := vclock.NewScheduler()
		workers := make([]*vclock.Worker, n)
		for i := range workers {
			workers[i] = sched.Register(vclock.NewClock())
		}
		var wg sync.WaitGroup
		t0 := time.Now()
		for _, w := range workers {
			wg.Add(1)
			go func(w *vclock.Worker) {
				defer wg.Done()
				if !w.Begin() {
					return
				}
				defer w.Done()
				for op := 0; op < ops/n; op++ {
					w.Clock().Advance(time.Microsecond)
					if !w.Yield() {
						return
					}
				}
			}(w)
		}
		wg.Wait()
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	sort.Float64s(rounds)
	return rounds[len(rounds)/2]
}

// netstoreProbes times the object-store backend: a GET on a cache miss,
// a cache hit, a staged write, and a flush of 16 dirty objects.
func netstoreProbes(m map[string]float64, model *costmodel.Model) error {
	st := netstore.New(netstore.Config{Name: "probe", BlockSize: 4096, Blocks: 32768, Model: model})
	const objs = 1024 // 16x the object cache, so a cyclic scan always misses
	step := netstore.DefaultObjectBlocks
	buf := make([]byte, 4096)
	var now int64
	var firstErr error
	do := func(done int64, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		now = max(now, done)
	}
	for o := 0; o < objs; o++ {
		do(st.SubmitBlock(now, o*step, buf))
	}
	do(st.Flush(now))
	m["netstore.get_ns"] = measure(20000, nil, func(i int) { do(st.ReadBlock(now, (i%objs)*step, buf)) }).ns
	m["netstore.hit_ns"] = measure(200000, nil, func(int) { do(st.ReadBlock(now, 0, buf)) }).ns
	m["netstore.submit_ns"] = measure(200000, nil, func(i int) { do(st.SubmitBlock(now, i%step, buf)) }).ns
	fl := measure(1000, func(i int) {
		for o := 0; o < 16; o++ {
			do(st.SubmitBlock(now, ((i*16+o)%objs)*step, buf))
		}
	}, func(int) { do(st.Flush(now)) })
	m["netstore.flush_ns"], m["netstore.flush_allocs"] = fl.ns, fl.allocs
	return firstErr
}

// fileProbes times the syscall layer on a warm Bento mount — 4 KiB and
// 1 MiB page-cache reads, 4 KiB writes, stat — and the journal commit
// behind fsync on Bento (xv6 log) and ext4.
func fileProbes(m map[string]float64) error {
	o := baseOptions()
	tg, err := harness.NewTarget(harness.VariantBento, o)
	if err != nil {
		return err
	}
	task := tg.K.NewTask("probe")
	const size = 8 << 20
	if err := tg.M.WriteFile(task, "/probe", patternBytes(size, patternPeriod)); err != nil {
		return err
	}
	if _, err := tg.M.ReadFile(task, "/probe"); err != nil {
		return err
	}
	f, err := tg.M.Open(task, "/probe", fsapi.ORdwr)
	if err != nil {
		return err
	}
	defer tg.M.Close(task, f)
	var firstErr error
	fail := func(_ int, err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b4k, b1m := make([]byte, 4096), make([]byte, 1<<20)
	slot := func(i, n int) int64 { return int64((i*7919)%n) * int64(size/n) }
	rd := measure(200000, nil, func(i int) { fail(f.PRead(task, b4k, slot(i, size/4096))) })
	m["kernel.pread4k_ns"], m["kernel.pread4k_allocs"] = rd.ns, rd.allocs
	m["kernel.pread1m_ns"] = measure(2000, nil, func(i int) { fail(f.PRead(task, b1m, slot(i, size>>20))) }).ns
	wr := measure(100000, nil, func(i int) { fail(f.PWrite(task, b4k, slot(i, size/4096))) })
	m["kernel.pwrite4k_ns"], m["kernel.pwrite4k_allocs"] = wr.ns, wr.allocs
	m["kernel.stat_ns"] = measure(200000, nil, func(int) {
		_, err := tg.M.Stat(task, "/probe")
		fail(0, err)
	}).ns
	for _, v := range []struct{ variant, key string }{
		{harness.VariantBento, "xv6.commit_ns"}, {harness.VariantExt4, "ext4.commit_ns"},
	} {
		ns, err := commitCost(v.variant, o)
		fail(0, err)
		m[v.key] = ns
	}
	return firstErr
}

// commitCost is the host cost of File.FSync after one 4 KiB write: one
// journal commit of the written block and the inode.
func commitCost(variant string, o harness.Options) (float64, error) {
	tg, err := harness.NewTarget(variant, o)
	if err != nil {
		return 0, err
	}
	task := tg.K.NewTask("probe")
	f, err := tg.M.Open(task, "/commit", fsapi.OCreate|fsapi.ORdwr)
	if err != nil {
		return 0, err
	}
	defer tg.M.Close(task, f)
	b := make([]byte, 4096)
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c := measure(2000, func(i int) {
		_, err := f.PWrite(task, b, int64(i%64)*4096)
		keep(err)
	}, func(int) { keep(f.FSync(task)) })
	if firstErr != nil {
		return 0, fmt.Errorf("%s commit probe: %w", variant, firstErr)
	}
	return c.ns, nil
}
