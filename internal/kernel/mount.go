package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/fsapi"
	"bento/internal/iodaemon"
	"bento/internal/lru"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// DefaultDirtyLimitPages is the per-mount dirty page budget (8 MiB). A
// writer that pushes the mount past it performs write-back of the file it
// is writing — the balance_dirty_pages analogue that keeps the write
// benchmarks measuring the storage path rather than memcpy.
const DefaultDirtyLimitPages = 2048

// DefaultPageCacheCap bounds cached pages per mount (clean pages are
// evicted beyond it).
const DefaultPageCacheCap = 1 << 18 // 1 GiB of 4K pages

// Mount is one mounted file system: the VFS objects (inode/dentry caches),
// the page cache, and the system-call entry points that benchmarks and
// examples drive.
type Mount struct {
	k          *Kernel
	fstype     string
	mountPoint string
	fs         FileSystem
	dev        *blockdev.Device
	model      *costmodel.Model

	mu sync.Mutex // guards fs (SwapFS); the tables below have their own locks

	vnodeMu sync.Mutex
	vnodes  map[fsapi.Ino]*vnode

	dcacheMu sync.Mutex
	dcache   map[dkey]fsapi.Ino

	dirtyPages atomic.Int64
	dirtyLimit int64

	totalPages atomic.Int64
	pageCap    int64

	seq atomic.Int64 // LRU tick for page eviction

	// iod is the background I/O subsystem (read-ahead + write-back
	// flusher); nil until EnableIODaemon, and set before the mount sees
	// traffic. The FUSE baseline never enables it — that asymmetry is
	// the paper's point.
	iod *iodaemon.Daemon[*Task]

	// flushFn is m.bdiFlush bound once at mount creation; taking the
	// method value inline would allocate on every balanceDirty call.
	flushFn func(*Task) (int, int, error)
}

type dkey struct {
	dir  fsapi.Ino
	name string
}

// vnode is the in-core inode: cached attributes plus this file's slice of
// the page cache. The page cache is an lru.Core — map, intrusive recency
// list, and explicit dirty set — driven under vn.mu, so the cache is
// naturally sharded by file with a per-vnode lock.
type vnode struct {
	m   *Mount
	ino fsapi.Ino

	mu       sync.RWMutex
	ftype    fsapi.FileType
	size     int64
	opens    int
	unlinked bool // nlink hit zero; discard on last close
	pc       lru.Core[*page]

	// ra is the read-ahead state (used only when m.iod != nil), under
	// its own lock so the per-read window update never forces the
	// cached-read path through the exclusive vnode lock. raMu is a
	// leaf: readAhead drops it before touching vn.mu.
	raMu sync.Mutex
	ra   iodaemon.Window

	// fillFn is the read-ahead fill callback, built once on first use so
	// FillAhead batches never allocate a fresh closure. Set under vn.mu.
	fillFn func(*Task, int64) (bool, error)

	// Write-back scratch, reused across writebackLocked calls (guarded by
	// vn.mu, like the dirty set they snapshot). truncateLocked borrows
	// wbKeys too — it holds the same lock and the uses never overlap.
	wbKeys  []int64
	wbRuns  []iodaemon.Run
	wbBatch [][]byte
}

// page is one cached 4K page. Readers bump lastUse under the shared
// vnode lock (the PRead fast path), so recency reaches the LRU list
// lazily: eviction runs a second-chance scan that rotates
// touched-since-positioned pages back to the front.
//
// Pages filled by read-ahead carry readyAt, the virtual time their
// asynchronous device read completes; a reader that catches up with the
// pipeline waits until then. Demand-filled pages leave it zero: their
// device wait was paid synchronously, and a full-page overwrite clears
// it (the overwrite discards the fill's contents, so no wait is owed).
// readyAt is written only under the exclusive vnode lock (page creation
// and full-page overwrite), so the shared-lock read path may load it
// plainly.
//
// Read-ahead fills also run the lru.FillState publish-locked protocol
// (BeginFill before publication, CompleteFill/drop+FailFill after), the
// same discipline as the buffer caches. Under the current locking it is
// belt-and-braces: a fill resolves before vn.mu is released, so no
// reader can observe a mid-fill page and none calls AwaitFill. The
// protocol's load-bearing half here is the error path — a failed fill
// is dropped from the cache before FailFill, so a poisoned page is
// never reachable.
type page struct {
	node    lru.Node
	fill    lru.FillState
	data    []byte
	readyAt int64
	lastUse atomic.Int64
}

// LRUNode exposes the intrusive cache hook (lru.Entry).
func (pg *page) LRUNode() *lru.Node { return &pg.node }

// pageRecency is the second-chance recency reader for EvictScan.
func pageRecency(pg *page) int64 { return pg.lastUse.Load() }

func newMount(k *Kernel, fstype, mountPoint string, fs FileSystem, dev *blockdev.Device) *Mount {
	m := &Mount{
		k:          k,
		fstype:     fstype,
		mountPoint: mountPoint,
		fs:         fs,
		dev:        dev,
		model:      k.model,
		dirtyLimit: DefaultDirtyLimitPages,
		pageCap:    DefaultPageCacheCap,
		vnodes:     make(map[fsapi.Ino]*vnode),
		dcache:     make(map[dkey]fsapi.Ino),
	}
	m.flushFn = m.bdiFlush
	return m
}

// FS exposes the mounted file system (used by tools like fsck and by the
// online-upgrade machinery).
func (m *Mount) FS() FileSystem { return m.fs }

// Device reports the device backing this mount.
func (m *Mount) Device() *blockdev.Device { return m.dev }

// MountPoint reports the label the mount was created with.
func (m *Mount) MountPoint() string { return m.mountPoint }

// SetDirtyLimit overrides the dirty-page budget (testing/benchmarks).
func (m *Mount) SetDirtyLimit(pages int64) {
	if pages > 0 {
		m.dirtyLimit = pages
	}
}

// SetPageCacheCap overrides the page-cache capacity (testing/benchmarks).
func (m *Mount) SetPageCacheCap(pages int64) {
	if pages > 0 {
		m.pageCap = pages
	}
}

// EnableIODaemon starts the background I/O subsystem for this mount:
// per-file sequential read-ahead into the page cache and a cross-vnode
// background write-back flusher, both simulated tasks in virtual time.
// Call it once, after Mount and before the mount sees traffic. The
// zero Config selects Linux-shaped defaults.
func (m *Mount) EnableIODaemon(cfg iodaemon.Config) *iodaemon.Daemon[*Task] {
	m.iod = iodaemon.New(cfg,
		m.k.NewTask("kworker-readahead:"+m.mountPoint),
		m.k.NewTask("kworker-flush:"+m.mountPoint),
		func(at int64) *Task {
			ft := m.k.NewTaskWithClock("kworker-fill:"+m.mountPoint,
				vclock.NewClockAt(time.Duration(at)))
			// The fill task's clock is rebased (SetNS) to each batch's
			// submission time, so spans recorded on it would overlap on
			// one track; read-ahead work is counted and marked with
			// instants instead (see iodaemon.FillAhead), never spanned.
			ft.rec = nil
			return ft
		})
	m.iod.SetRecorder(m.k.rec)
	return m.iod
}

// IODaemon reports the mount's background I/O subsystem (nil when
// disabled).
func (m *Mount) IODaemon() *iodaemon.Daemon[*Task] { return m.iod }

// SwapFS atomically replaces the file-system operations vector. Only the
// online-upgrade machinery in internal/core calls this, with all
// in-flight operations quiesced.
func (m *Mount) SwapFS(fs FileSystem) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fs = fs
}

// BlockCacheDropper is the optional interface a file system implements
// when its buffer cache should be emptied by DropCaches along with the
// page cache: clean, unreferenced blocks are dropped, dirty ones stay.
// The in-kernel file systems implement it; the FUSE daemon's user-level
// block cache deliberately does not — /proc/sys/vm/drop_caches cannot
// reach a userspace process's memory.
type BlockCacheDropper interface {
	DropCleanBlocks() int
}

// DropCaches evicts all clean cached pages, dentries, and (for file
// systems implementing BlockCacheDropper) clean buffer-cache blocks,
// like /proc/sys/vm/drop_caches; dirty state is untouched. Benchmarks
// use it to measure cold paths: with the data bypass the buffer cache
// holds only metadata, and dropping it too means a "cold" pass re-reads
// inodes and indirect blocks from the device instead of a warm cache.
// Vnodes are visited in ascending inode order — the drops commute, but
// the deterministic-replay contract is simpler to audit when no path
// ever walks a Go map in iteration order.
func (m *Mount) DropCaches() {
	m.dcacheMu.Lock()
	m.dcache = make(map[dkey]fsapi.Ino)
	m.dcacheMu.Unlock()
	_ = m.forEachVnodeByIno(func(vn *vnode) error {
		vn.mu.Lock()
		dropped := vn.pc.DropCleanFunc(putPage)
		vn.mu.Unlock()
		// The ahead marker points at pages that just vanished; collapse
		// the window so the next stream re-ramps over real misses.
		vn.raMu.Lock()
		vn.ra.Reset()
		vn.raMu.Unlock()
		m.totalPages.Add(-int64(dropped))
		return nil
	})
	if d, ok := m.fs.(BlockCacheDropper); ok {
		d.DropCleanBlocks()
	}
	// The storage backend may keep its own cache tier below the device
	// front (netstore's read-through object cache). Drop its clean
	// entries too, or a "cold" pass would stream from that cache and
	// never pay network cost. A no-op for the local backend.
	m.dev.DropBackendCache()
}

// vnodePeek returns the resident in-core inode for ino, if any.
func (m *Mount) vnodePeek(ino fsapi.Ino) (*vnode, bool) {
	m.vnodeMu.Lock()
	vn, ok := m.vnodes[ino]
	m.vnodeMu.Unlock()
	return vn, ok
}

// vnodeFor returns (creating if needed) the in-core inode for ino.
func (m *Mount) vnodeFor(t *Task, ino fsapi.Ino) (*vnode, error) {
	m.vnodeMu.Lock()
	if vn, ok := m.vnodes[ino]; ok {
		m.vnodeMu.Unlock()
		return vn, nil
	}
	m.vnodeMu.Unlock()

	st, err := m.fs.GetAttr(t, ino)
	if err != nil {
		return nil, err
	}
	m.vnodeMu.Lock()
	defer m.vnodeMu.Unlock()
	if vn, ok := m.vnodes[ino]; ok { // lost the race; keep the winner
		return vn, nil
	}
	vn := &vnode{
		m:     m,
		ino:   ino,
		ftype: st.Type,
		size:  st.Size,
	}
	m.vnodes[ino] = vn
	return vn, nil
}

// vnodeFromStat installs a vnode using attributes we already hold (create
// paths), avoiding a redundant GetAttr.
func (m *Mount) vnodeFromStat(st fsapi.Stat) *vnode {
	m.vnodeMu.Lock()
	defer m.vnodeMu.Unlock()
	if vn, ok := m.vnodes[st.Ino]; ok {
		return vn
	}
	vn := &vnode{
		m:     m,
		ino:   st.Ino,
		ftype: st.Type,
		size:  st.Size,
	}
	m.vnodes[st.Ino] = vn
	return vn
}

// dropVnode removes an unlinked, closed vnode and its pages, recycling
// the pages (nothing can reference them: the file has no opens left).
func (m *Mount) dropVnode(vn *vnode) {
	vn.mu.Lock()
	nDirty := int64(vn.pc.DirtyLen())
	nPages := int64(vn.pc.Len())
	vn.pc.ClearFunc(putPage)
	vn.mu.Unlock()
	m.dirtyPages.Add(-nDirty)
	m.totalPages.Add(-nPages)
	m.vnodeMu.Lock()
	delete(m.vnodes, vn.ino)
	m.vnodeMu.Unlock()
}

// --- dentry cache ---

func (m *Mount) dcacheGet(t *Task, dir fsapi.Ino, name string) (fsapi.Ino, bool) {
	t.Charge(m.model.PageCacheLookup)
	m.dcacheMu.Lock()
	ino, ok := m.dcache[dkey{dir, name}]
	m.dcacheMu.Unlock()
	return ino, ok
}

func (m *Mount) dcachePut(dir fsapi.Ino, name string, ino fsapi.Ino) {
	m.dcacheMu.Lock()
	m.dcache[dkey{dir, name}] = ino
	m.dcacheMu.Unlock()
}

func (m *Mount) dcacheDrop(dir fsapi.Ino, name string) {
	m.dcacheMu.Lock()
	delete(m.dcache, dkey{dir, name})
	m.dcacheMu.Unlock()
}

// --- path resolution ---

// pathIter walks a path's components without allocating: each component
// is a substring of the original path, so the stat/lookup hot paths
// never materialize a []string. The mount root is "/"; "" and "."
// components are elided; ".." is resolved by the file system (xv6 and
// ext4 both store real "." and ".." entries) — exactly the old
// splitPath normalization.
type pathIter struct {
	path string
	pos  int
}

// next returns the following component, or ok=false at the end.
func (it *pathIter) next() (string, bool) {
	for it.pos < len(it.path) {
		start := it.pos
		for it.pos < len(it.path) && it.path[it.pos] != '/' {
			it.pos++
		}
		name := it.path[start:it.pos]
		it.pos++ // step over the separator (or past the end)
		if name != "" && name != "." {
			return name, true
		}
	}
	return "", false
}

// Resolve walks path to an inode, charging dcache/lookup costs. The
// iterator runs one component ahead so "is this the last component?" is
// known without splitting the whole path up front.
func (m *Mount) Resolve(t *Task, path string) (fsapi.Stat, error) {
	it := pathIter{path: path}
	cur := m.fs.Root()
	name, ok := it.next()
	for ok {
		peek, more := it.next()
		last := !more
		if ino, hit := m.dcacheGet(t, cur, name); hit {
			if last {
				return m.fs.GetAttr(t, ino)
			}
			cur = ino
			name, ok = peek, more
			continue
		}
		st, err := m.fs.Lookup(t, cur, name)
		if err != nil {
			return fsapi.Stat{}, err
		}
		m.dcachePut(cur, name, st.Ino)
		if last {
			return st, nil
		}
		if st.Type != fsapi.TypeDir {
			return fsapi.Stat{}, fsapi.ErrNotDir
		}
		cur = st.Ino
		name, ok = peek, more
	}
	return m.fs.GetAttr(t, cur)
}

// ResolveParent walks to the parent directory of path and returns its
// inode along with the final component (a substring of path).
func (m *Mount) ResolveParent(t *Task, path string) (fsapi.Ino, string, error) {
	it := pathIter{path: path}
	name, ok := it.next()
	if !ok {
		return 0, "", fmt.Errorf("kernel: %q has no final component: %w", path, fsapi.ErrInvalid)
	}
	cur := m.fs.Root()
	for {
		peek, more := it.next()
		if !more {
			return cur, name, nil
		}
		if ino, hit := m.dcacheGet(t, cur, name); hit {
			cur = ino
		} else {
			st, err := m.fs.Lookup(t, cur, name)
			if err != nil {
				return 0, "", err
			}
			if st.Type != fsapi.TypeDir {
				return 0, "", fsapi.ErrNotDir
			}
			m.dcachePut(cur, name, st.Ino)
			cur = st.Ino
		}
		name = peek
	}
}

// --- page cache ---

// loadPage returns the page at idx for vn, reading through the file system
// on a miss. Caller holds vn.mu.
func (vn *vnode) loadPage(t *Task, idx int64) (*page, error) {
	if pg, ok := vn.pc.Peek(idx); ok {
		t.rec.Add(trace.CtrPageHits, 1)
		pg.lastUse.Store(vn.m.seq.Add(1))
		if r := pg.readyAt; r != 0 {
			// Read-ahead filled this page; its contents exist only once
			// the asynchronous device read completes.
			t.waitSpan(trace.CatCache, "ra-wait", r)
		}
		return pg, nil
	}
	t.rec.Add(trace.CtrPageMisses, 1)
	pg := getPage() // zeroed: beyond-EOF pages must read as zeros
	pg.lastUse.Store(vn.m.seq.Add(1))
	if idx*fsapi.PageSize < vn.size {
		fillStart := t.Clk.NowNS()
		if err := vn.m.fs.ReadPage(t, vn.ino, idx, pg.data); err != nil {
			putPage(pg) // never published; safe to recycle
			return nil, err
		}
		if r := t.rec; r != nil {
			r.Span(t.Name, trace.CatCache, "page-fill", fillStart, t.Clk.NowNS())
		}
	}
	vn.pc.Add(idx, pg)
	if vn.m.totalPages.Add(1) > vn.m.pageCap {
		// Pin the fresh page: with every other page dirty or pinned the
		// scan could otherwise evict it before the caller writes to it.
		pg.node.Pin()
		vn.evictCleanLocked()
		pg.node.Unpin()
	}
	return pg, nil
}

// evictCleanLocked drops a handful of clean pages from this vnode in
// second-chance LRU order: pages read since they were last positioned
// (readers only bump lastUse, under the shared lock) get rotated back to
// the front instead of evicted. Caller holds vn.mu.
func (vn *vnode) evictCleanLocked() {
	for evicted := 0; evicted < 16; evicted++ {
		victim, ok := vn.pc.EvictScan(pageRecency)
		if !ok {
			return
		}
		vn.m.totalPages.Add(-1)
		putPage(victim)
	}
}

// markDirty flags page idx dirty. Caller holds vn.mu. Reports whether the
// mount's dirty budget is now exceeded.
func (vn *vnode) markDirty(idx int64) (overLimit bool) {
	if vn.pc.MarkDirty(idx) {
		return vn.m.dirtyPages.Add(1) > vn.m.dirtyLimit
	}
	return vn.m.dirtyPages.Load() > vn.m.dirtyLimit
}

// writeback flushes vn's dirty pages through the file system, using the
// batched ->writepages path when the file system supports it and the
// one-page-per-call ->writepage path otherwise. The per-call overhead
// difference between those two paths is the mechanism behind the paper's
// Bento-vs-VFS write gap.
func (vn *vnode) writeback(t *Task) error {
	vn.mu.Lock()
	defer vn.mu.Unlock()
	_, _, err := vn.writebackLocked(t)
	return err
}

// writebackLocked drains vn's dirty set and reports how many write-back
// calls and pages it issued (the flusher's batching statistics). Caller
// holds vn.mu.
func (vn *vnode) writebackLocked(t *Task) (calls, pages int, err error) {
	if vn.pc.DirtyLen() == 0 {
		return 0, 0, nil
	}
	// Snapshot into the vnode's scratch (ascending, coalesced): the
	// flusher fires on every dirty-budget crossing, so rebuilding these
	// slices per pass would dominate the write path's allocations.
	vn.wbKeys = vn.pc.AppendDirtyKeys(vn.wbKeys[:0])
	vn.wbRuns = iodaemon.AppendRuns(vn.wbRuns[:0], vn.wbKeys)
	runs := vn.wbRuns

	bw, batched := vn.m.fs.(BatchWriter)
	model := vn.m.model

	pageData := func(idx int64) []byte {
		pg, _ := vn.pc.Peek(idx)
		return pg.data
	}
	for _, run := range runs {
		if batched {
			batch := vn.wbBatch[:0]
			for i := 0; i < run.Count; i++ {
				batch = append(batch, pageData(run.Start+int64(i)))
			}
			vn.wbBatch = batch
			t.Charge(model.WritepagesCall)
			err := bw.WritePages(t, vn.ino, run.Start, batch, vn.size)
			clear(vn.wbBatch) // drop page refs so eviction can recycle
			vn.wbBatch = vn.wbBatch[:0]
			if err != nil {
				return calls, pages, err
			}
			calls++
			pages += run.Count
			continue
		}
		for i := 0; i < run.Count; i++ {
			idx := run.Start + int64(i)
			t.Charge(model.WritepageCall)
			if err := vn.m.fs.WritePage(t, vn.ino, idx, pageData(idx), vn.size); err != nil {
				return calls, pages, err
			}
			calls++
			pages++
		}
	}
	cleaned := vn.pc.ClearAllDirty()
	vn.m.dirtyPages.Add(-int64(cleaned))
	return calls, pages, nil
}

// writebackAll flushes every vnode's dirty pages (sync path).
func (m *Mount) writebackAll(t *Task) error {
	return m.forEachVnodeByIno(func(vn *vnode) error {
		return vn.writeback(t)
	})
}

// vnodeScratch pools the snapshot slices forEachVnodeByIno sorts into;
// the flusher takes one per pass, so allocating fresh would show up on
// every dirty-budget crossing.
var vnodeScratch sync.Pool

// forEachVnodeByIno visits the vnode table in ascending inode order, so
// cross-vnode passes (sync, drop_caches, the background flusher) visit
// files deterministically. A non-nil error from fn stops the walk.
func (m *Mount) forEachVnodeByIno(fn func(*vnode) error) error {
	v, _ := vnodeScratch.Get().(*[]*vnode)
	if v == nil {
		v = new([]*vnode)
	}
	vns := (*v)[:0]
	m.vnodeMu.Lock()
	for _, vn := range m.vnodes {
		vns = append(vns, vn)
	}
	m.vnodeMu.Unlock()
	slices.SortFunc(vns, func(a, b *vnode) int { return cmp.Compare(a.ino, b.ino) })
	var err error
	for _, vn := range vns {
		if err = fn(vn); err != nil {
			break
		}
	}
	clear(vns) // drop vnode refs before pooling
	*v = vns[:0]
	vnodeScratch.Put(v)
	return err
}

// bdiFlush is one background flusher pass (the per-BDI flusher-thread
// analogue): drain every vnode's dirty set in ascending inode order,
// coalescing contiguous dirty pages into batched ->writepages calls.
// It runs on the flusher's task, never an application's. Called with no
// locks held.
func (m *Mount) bdiFlush(ft *Task) (calls, pages int, err error) {
	start := ft.Clk.NowNS()
	err = m.forEachVnodeByIno(func(vn *vnode) error {
		vn.mu.Lock()
		c, p, ferr := vn.writebackLocked(ft)
		vn.mu.Unlock()
		calls += c
		pages += p
		return ferr
	})
	if r := ft.rec; r != nil && pages > 0 {
		r.SpanAB(ft.Name, trace.CatDaemon, "flush-pass", start, ft.Clk.NowNS(), int64(calls), int64(pages))
	}
	return calls, pages, err
}

// balanceDirty is the write path's dirty-budget policy when the
// background flusher is running (the balance_dirty_pages analogue).
// Crossing the background threshold wakes the flusher, which cleans on
// its own clock; the writer pays only the wakeup. A writer that queued
// work on a flusher still busy in the virtual future — or that blew
// through the hard limit outright — is throttled: writer and flusher
// double-buffer, so sustained write throughput converges on the slower
// of application CPU and device write-back without stalling the
// pipeline. Called with no locks held.
func (m *Mount) balanceDirty(t *Task) error {
	d := m.iod
	dirty := m.dirtyPages.Load()
	if dirty <= d.BackgroundThreshold(m.dirtyLimit) {
		return nil
	}
	t.Charge(m.model.FlusherWakeup)
	over := dirty > m.dirtyLimit
	prev := d.FlusherNow()
	done, err := d.Flush(t.Clk.NowNS(), m.flushFn)
	if err != nil {
		return err
	}
	switch {
	case over:
		d.NoteThrottle()
		t.waitSpan(trace.CatDaemon, "throttle", done)
	case prev > t.Clk.NowNS():
		d.NoteThrottle()
		t.waitSpan(trace.CatDaemon, "throttle", prev)
	}
	return nil
}

// readAhead advises the read-ahead state machine about a demand read
// covering pages [first, last] and schedules asynchronous fills for the
// window it opens. Only called when m.iod != nil.
//
// The common warm-cache case never touches the exclusive vnode lock:
// the window update runs under its own raMu, and the EOF clamp plus
// fully-resident check run under the shared lock — so concurrent
// readers of one cached file keep scaling, and cached benchmark phases
// see no background clock traffic at all. Only a window with real
// misses upgrades to vn.mu for the fills.
func (vn *vnode) readAhead(t *Task, first, last int64) {
	m := vn.m
	d := m.iod
	cfg := d.Config()
	t.Charge(m.model.ReadaheadUpdate)
	vn.raMu.Lock()
	start, count := vn.ra.Access(first, last, cfg.InitWindow, cfg.MaxWindow)
	vn.raMu.Unlock()
	if count == 0 {
		return
	}
	vn.mu.RLock()
	if vn.size == 0 {
		vn.mu.RUnlock()
		return
	}
	// Clamp the window to EOF.
	lastPg := (vn.size - 1) / fsapi.PageSize
	if start > lastPg {
		vn.mu.RUnlock()
		return
	}
	if start+count-1 > lastPg {
		count = lastPg - start + 1
	}
	missing := false
	for pg := start; pg < start+count; pg++ {
		if _, ok := vn.pc.Peek(pg); !ok {
			missing = true
			break
		}
	}
	vn.mu.RUnlock()
	if !missing {
		return
	}
	// Misses exist (or did moments ago — fillPageLocked re-checks each
	// page, so a racing fill just turns into skips): run the batch.
	vn.mu.Lock()
	// Re-clamp against the current size: a truncate may have slipped in
	// since the shared-lock check, and filling past the new EOF would
	// cache phantom pages a later re-extension must never serve.
	if vn.size == 0 || start > (vn.size-1)/fsapi.PageSize {
		vn.mu.Unlock()
		return
	}
	if lastPg := (vn.size - 1) / fsapi.PageSize; start+count-1 > lastPg {
		count = lastPg - start + 1
	}
	if vn.fillFn == nil {
		vn.fillFn = func(rt *Task, pg int64) (bool, error) {
			return vn.fillPageLocked(rt, pg)
		}
	}
	err := d.FillAhead(t.Clk.NowNS(), start, count, vn.fillFn)
	vn.mu.Unlock()
	if err != nil {
		// A failed fill must not fail the demand read that merely
		// triggered it; collapse the window so the stream stops running
		// into the bad region. A demand read of the failed page will
		// surface the error synchronously.
		vn.raMu.Lock()
		vn.ra.Reset()
		vn.raMu.Unlock()
	}
}

// fillPageLocked reads page pg into the cache on the read-ahead task
// rt, following the lru.FillState publish-locked protocol: the page is
// published locked and unfilled, filled from the file system, then
// resolved — and dropped before FailFill on error so no later getter
// can hit a poisoned page. Caller holds vn.mu.
func (vn *vnode) fillPageLocked(rt *Task, pg int64) (bool, error) {
	if _, ok := vn.pc.Peek(pg); ok {
		return false, nil
	}
	p := getPage()
	p.lastUse.Store(vn.m.seq.Add(1))
	p.fill.BeginFill()
	vn.pc.Add(pg, p)
	if vn.m.totalPages.Add(1) > vn.m.pageCap {
		p.node.Pin()
		vn.evictCleanLocked()
		p.node.Unpin()
	}
	if err := vn.m.fs.ReadPage(rt, vn.ino, pg, p.data); err != nil {
		vn.pc.Remove(pg)
		vn.m.totalPages.Add(-1)
		p.fill.FailFill(err)
		return false, err
	}
	p.readyAt = rt.Clk.NowNS()
	p.fill.CompleteFill()
	return true, nil
}

// shutdown quiesces the background I/O subsystem, syncs everything, and
// unmounts.
func (m *Mount) shutdown(t *Task) error {
	if m.iod != nil {
		// Stop the daemon after a final flusher pass; the unmounting
		// task waits for the flusher to retire.
		done, err := m.iod.Quiesce(m.flushFn)
		if err != nil {
			return err
		}
		t.Clk.AdvanceTo(done)
	}
	if err := m.writebackAll(t); err != nil {
		return err
	}
	if err := m.fs.Sync(t); err != nil {
		return err
	}
	return m.fs.Unmount(t)
}
