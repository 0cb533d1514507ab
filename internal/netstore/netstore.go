// Package netstore is the object-store storage backend: a
// blockdev.Backend that maps block extents onto fixed-size objects
// behind a network cost model, the simulator's stand-in for running a
// file system over S3/MinIO-class storage (the paper's Bento-over-Riak
// direction). It exists to ask how the kernel-vs-FUSE gap, and the
// batching machinery that creates it, behave when the bottom of the
// stack is three orders of magnitude slower than a local NVMe device.
//
// Layout. Consecutive ObjectBlocks device blocks form one object; block
// b lives at offset (b mod ObjectBlocks)·BlockSize inside object
// b/ObjectBlocks. All network transfer is whole objects — there are no
// byte-range GETs — which is what makes object size the fundamental
// read-amplification / round-trip-amortization trade-off.
//
// Cost model. Requests are served by a vclock.Resource with
// Model.NetChannels channels (the connection pool): in-flight requests
// beyond that queue. A GET or PUT costs first-byte latency
// (NetGetBase/NetPutBase — the -netlat knob) plus NetPer4K per 4KiB of
// object payload (the -netbw knob), so round trips amortize across
// object bytes exactly as they do over a real link.
//
// Cache tier. A read-through object cache (an lru.Core at CacheObjects
// capacity) absorbs block reads and writes: a miss GETs the whole
// object, a write dirties the cached object in place (write-back), and
// Flush coalesces every dirty object into one whole-object PUT, issued
// concurrently across the request channels and fenced by a NetFlush
// barrier. Under cache pressure the LRU victim must be clean; when every
// resident object is dirty, the lowest-numbered dirty object is written
// back early (an eviction PUT). That early durability is allowed by the
// Backend crash contract, which is one-sided: flushed data must survive,
// staged data may.
//
// Determinism. Durable state and completion times are pure functions of
// the call sequence: write-back iterates the dirty set in sorted key
// order, eviction follows the recency list, and crash keep-decisions
// visit staged blocks in sorted order under a seeded PRNG — no map
// iteration order ever reaches virtual time or durable bytes.
package netstore

import (
	"fmt"
	"math/rand"
	"sort"

	"bento/internal/blockdev"
	"bento/internal/costmodel"
	"bento/internal/faultinject/seeded"
	"bento/internal/lru"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// DefaultObjectBlocks is the object extent in blocks (64KiB objects at
// the standard 4KiB block size) — large enough that sequential reads
// amortize the GET round trip, small enough that random-write
// read-modify-write amplification stays visible.
const DefaultObjectBlocks = 16

// DefaultCacheObjects is the default cache capacity in objects (4MiB of
// block data at the defaults): deliberately far smaller than the device,
// so quick-matrix working sets actually exercise eviction.
const DefaultCacheObjects = 64

// Config sizes the store. BlockSize and Blocks must match the owning
// blockdev.Config geometry.
type Config struct {
	Name      string
	BlockSize int
	Blocks    int
	// Model supplies the Net* cost entries and NetChannels.
	Model *costmodel.Model
	// ObjectBlocks is blocks per object (DefaultObjectBlocks if 0).
	ObjectBlocks int
	// CacheObjects is the cache capacity in objects (DefaultCacheObjects
	// if 0).
	CacheObjects int
	// Faults arms the deterministic network-fault model (see faults.go).
	// The zero value keeps the network perfectly reliable and the
	// request path identical to the pre-fault implementation.
	Faults FaultConfig
}

// object is one cached object: its full contents plus which of its
// blocks are staged (written since last made durable).
type object struct {
	node  lru.Node
	data  []byte
	dirty map[int]struct{} // block index within the object
}

func (o *object) LRUNode() *lru.Node { return &o.node }

// Store implements blockdev.Backend over a simulated object store. The
// Device front serializes all calls under its own mutex, so Store does
// no locking of its own.
type Store struct {
	name      string
	blockSize int
	objBlocks int
	objBytes  int
	cacheCap  int
	model     *costmodel.Model

	durable map[int64][]byte // object id → durable contents (sparse; absent = zeros)
	cache   lru.Core[*object]
	staged  int // staged-not-durable blocks across all cached objects

	// Buffer reuse. A durable slice is never aliased — put copies into
	// it, load copies out of it, Crash writes into it — so an object's
	// PUTs after its first overwrite it in place. spares holds clean
	// objects evicted from the cache, which the next miss reuses whole.
	// keys is the scratch slice write-back sorts dirty object ids into.
	spares []*object
	keys   []int64

	res *vclock.Resource
	rec *trace.Recorder
	// Request spans land on one track per channel so spans on a track
	// never overlap (a channel's free time only moves forward); track
	// names are precomputed so recording never formats on a hot path.
	laneTracks []string
	flushTrack string

	// Network-fault model and client policy (see faults.go). faulty
	// gates the whole machinery: when false, requests take the clean
	// path with zero extra draws and zero extra allocations. dec is
	// monotone for the Store's lifetime — Reset and Crash deliberately
	// do not rewind it, or replayed decisions would repeat.
	faults        FaultConfig
	faulty        bool
	errPPM        uint32
	dec           seeded.Decider
	maxAttempts   int
	retryBudget   int64
	breakerK      int
	cooldown      int64
	degradedBound int
	outStart      int64
	outEnd        int64
	consecFails   int
	open          bool
	halfOpenAt    int64
	breakerTrack  string
}

// New builds the object-store backend.
func New(cfg Config) *Store {
	if cfg.ObjectBlocks <= 0 {
		cfg.ObjectBlocks = DefaultObjectBlocks
	}
	if cfg.CacheObjects <= 0 {
		cfg.CacheObjects = DefaultCacheObjects
	}
	s := &Store{
		name:      cfg.Name,
		blockSize: cfg.BlockSize,
		objBlocks: cfg.ObjectBlocks,
		objBytes:  cfg.ObjectBlocks * cfg.BlockSize,
		cacheCap:  cfg.CacheObjects,
		model:     cfg.Model,
		durable:   make(map[int64][]byte),
		res:       vclock.NewResource(cfg.Name+":net", cfg.Model.NetChannels),
	}
	s.laneTracks = make([]string, cfg.Model.NetChannels)
	for i := range s.laneTracks {
		s.laneTracks[i] = fmt.Sprintf("net#%02d", i)
	}
	s.flushTrack = "net:flush"
	s.initFaults(cfg.Faults)
	return s
}

var _ blockdev.Backend = (*Store)(nil)

// get books one GET on the request channels and returns its completion.
// Under the fault model it runs the full retry/hedge policy and can
// fail; the clean path is unchanged from the pre-fault implementation.
func (s *Store) get(now, objID int64) (int64, error) {
	s.rec.Add(trace.CtrNetGets, 1)
	svc := int64(s.model.NetGet(s.objBytes))
	if !s.faulty {
		ch, start, done := s.res.AcquireInfo(now, svc)
		s.rec.SpanAB(s.laneTracks[ch], trace.CatNet, "net-get", start, done, objID, int64(s.objBytes))
		return done, nil
	}
	return s.request(now, objID, svc, reqGet)
}

// put books one PUT on the request channels and, on success, copies the
// object to the durable tier and returns the completion time. flushing
// selects the durability-barrier policy profile (breaker bypass, high
// attempt cap).
func (s *Store) put(now, objID int64, o *object, flushing bool) (int64, error) {
	s.rec.Add(trace.CtrNetPuts, 1)
	svc := int64(s.model.NetPut(s.objBytes))
	var done int64
	if !s.faulty {
		var ch int
		var start int64
		ch, start, done = s.res.AcquireInfo(now, svc)
		s.rec.SpanAB(s.laneTracks[ch], trace.CatNet, "net-put", start, done, objID, int64(s.objBytes))
	} else {
		kind := reqPut
		if flushing {
			kind = reqFlushPut
		}
		var err error
		done, err = s.request(now, objID, svc, kind)
		if err != nil {
			return done, err
		}
	}
	if dst, ok := s.durable[objID]; ok {
		copy(dst, o.data)
	} else {
		s.durable[objID] = append(make([]byte, 0, s.objBytes), o.data...)
	}
	return done, nil
}

// load materializes objID in the cache from the durable tier, charging
// the GET when the object has ever been stored. A never-written object
// materializes as zeros without network traffic (the fresh-extent
// optimization: an allocating write needs no read-modify-write fill,
// and the client's extent map already knows the object cannot exist).
// It returns the cached object and the fill's completion time (now when
// no GET was needed). Under the fault model the GET can fail — degraded
// fail-fast or retries exhausted — in which case nothing is cached.
func (s *Store) load(now, objID int64) (*object, int64, error) {
	done := now
	durable, ok := s.durable[objID]
	if ok {
		var err error
		done, err = s.get(now, objID)
		if err != nil {
			return nil, done, err
		}
	}
	o := s.spare()
	if ok {
		copy(o.data, durable)
	} else {
		clear(o.data)
	}
	s.insert(now, objID, o)
	return o, done, nil
}

// spare returns an object for a cache fill: the most recently evicted
// clean object when there is one (its contents stale, its dirty set
// already empty), a fresh one otherwise. The caller overwrites data.
func (s *Store) spare() *object {
	n := len(s.spares)
	if n == 0 {
		return &object{data: make([]byte, s.objBytes), dirty: make(map[int]struct{})}
	}
	o := s.spares[n-1]
	s.spares[n-1] = nil
	s.spares = s.spares[:n-1]
	o.node.ResetForReuse()
	return o
}

// insert adds o under objID, making room first. The eviction victim is
// the LRU clean object; if every resident object is dirty, the
// lowest-numbered dirty object is written back (an eviction PUT, booked
// asynchronously at now — the caller does not wait on it) and then
// evicted. Write-back under pressure is what bounds how much staged
// data a crash can lose, at the price of PUT traffic before any flush.
func (s *Store) insert(now, objID int64, o *object) {
	for s.cache.Len() >= s.cacheCap {
		if vo, ok := s.cache.EvictScan(nil); ok {
			s.spares = append(s.spares, vo)
			continue
		}
		s.keys = s.cache.AppendDirtyKeys(s.keys[:0])
		victim := s.keys[0]
		vo, _ := s.cache.Peek(victim)
		if _, err := s.put(now, victim, vo, false); err != nil {
			// Degraded or retries exhausted: losing staged data is not
			// an option, so keep the victim dirty and let the cache
			// grow past capacity until the network recovers.
			break
		}
		s.rec.Add(trace.CtrNetEvictPuts, 1)
		s.cache.ClearDirty(victim)
		s.staged -= len(vo.dirty)
		clear(vo.dirty)
	}
	s.cache.Add(objID, o)
}

// ReadBlock implements blockdev.Backend. A cache hit completes
// immediately (the network tier adds nothing; CPU and cache costs were
// charged by the layers above); a miss GETs the whole object. While the
// circuit breaker is open, hits are still served — the degraded-mode
// reads the net_degraded counter tallies — and misses fail fast.
func (s *Store) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	objID := int64(blk / s.objBlocks)
	off := (blk % s.objBlocks) * s.blockSize
	o, ok := s.cache.Get(objID)
	done := now
	if ok {
		s.rec.Add(trace.CtrNetCacheHits, 1)
		if s.faulty && s.open {
			s.rec.Add(trace.CtrNetDegraded, 1)
		}
	} else {
		s.rec.Add(trace.CtrNetCacheMisses, 1)
		var err error
		o, done, err = s.load(now, objID)
		if err != nil {
			return done, err
		}
	}
	copy(buf, o.data[off:off+s.blockSize])
	return done, nil
}

// SubmitBlock implements blockdev.Backend: write-back into the cached
// object. A hit stages the block at no network cost; a miss to an
// object that exists durably pays a read-modify-write GET first. While
// the circuit breaker is open, writes keep queueing in cache up to
// DegradedWriteBlocks staged blocks, then surface EIO.
func (s *Store) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	objID := int64(blk / s.objBlocks)
	idx := blk % s.objBlocks
	o, ok := s.cache.Get(objID)
	done := now
	if ok {
		s.rec.Add(trace.CtrNetCacheHits, 1)
	} else {
		s.rec.Add(trace.CtrNetCacheMisses, 1)
		if s.faulty && s.open && now < s.halfOpenAt && s.staged >= s.degradedBound {
			// Don't bother with the RMW GET (which would fail fast
			// anyway for durable objects) if the write itself would be
			// refused.
			return now, ErrWriteBound
		}
		var err error
		o, done, err = s.load(now, objID)
		if err != nil {
			return done, err
		}
	}
	if s.faulty && s.open {
		if _, already := o.dirty[idx]; !already && s.staged >= s.degradedBound {
			return done, ErrWriteBound
		}
		s.rec.Add(trace.CtrNetDegraded, 1)
	}
	copy(o.data[idx*s.blockSize:(idx+1)*s.blockSize], buf)
	if _, already := o.dirty[idx]; !already {
		o.dirty[idx] = struct{}{}
		s.staged++
	}
	s.cache.MarkDirty(objID)
	return done, nil
}

// Flush implements blockdev.Backend: coalesce every dirty object into a
// whole-object PUT — all issued at now, so they overlap across the
// request channels — then fence them with the NetFlush barrier. Flush
// PUTs bypass the circuit breaker's fail-fast and retry until durable
// (the flushMaxAttempts safety valve aside): the durability barrier
// either completes or surfaces EIO with the un-PUT objects still
// staged.
func (s *Store) Flush(now int64) (int64, error) {
	s.keys = s.cache.AppendDirtyKeys(s.keys[:0])
	for _, objID := range s.keys {
		o, _ := s.cache.Peek(objID)
		if done, err := s.put(now, objID, o, true); err != nil {
			return done, err
		}
		s.cache.ClearDirty(objID)
		s.staged -= len(o.dirty)
		clear(o.dirty)
	}
	done := s.res.AcquireSerial(now, int64(s.model.NetFlush()))
	s.rec.Add(trace.CtrNetFlushes, 1)
	s.rec.Span(s.flushTrack, trace.CatNet, "net-flush", max64(now, done-int64(s.model.NetFlush())), done)
	return done, nil
}

// DirtyBlocks implements blockdev.Backend: blocks staged in cache but
// not yet durable. Eviction PUTs shrink it without a flush — staged
// data made durable early is no longer at risk.
func (s *Store) DirtyBlocks() int { return s.staged }

// Crash implements blockdev.Backend: contents revert to the durable
// tier plus a seeded keepFraction of the staged blocks, chosen per
// block in sorted order so the seed fully determines the outcome; the
// cache (the volatile tier) empties.
func (s *Store) Crash(keepFraction float64, seed int64) {
	blks := make([]int, 0, s.staged)
	byBlock := make(map[int]*object)
	for _, objID := range s.cache.DirtyKeys() {
		o, _ := s.cache.Peek(objID)
		for idx := range o.dirty {
			blk := int(objID)*s.objBlocks + idx
			blks = append(blks, blk)
			byBlock[blk] = o
		}
	}
	// Same keep discipline as the local backend: sorted blocks under a
	// seeded source, so a (seed, keepFraction) pair replays identically.
	sort.Ints(blks)
	rng := rand.New(rand.NewSource(seed))
	for _, blk := range blks {
		if rng.Float64() < keepFraction {
			objID := int64(blk / s.objBlocks)
			idx := blk % s.objBlocks
			durable, ok := s.durable[objID]
			if !ok {
				durable = make([]byte, s.objBytes)
				s.durable[objID] = durable
			}
			o := byBlock[blk]
			copy(durable[idx*s.blockSize:(idx+1)*s.blockSize], o.data[idx*s.blockSize:(idx+1)*s.blockSize])
		}
	}
	s.cache.Clear()
	s.staged = 0
	s.res.Reset()
}

// QueueDepth implements blockdev.Backend: object-store requests in
// flight at now.
func (s *Store) QueueDepth(now int64) int { return s.res.InUse(now) }

// ResourceStats implements blockdev.Backend for the request channels.
func (s *Store) ResourceStats() vclock.ResourceStats { return s.res.Stats() }

// Reset implements blockdev.Backend.
func (s *Store) Reset() { s.res.Reset() }

// SetRecorder implements blockdev.Backend.
func (s *Store) SetRecorder(r *trace.Recorder) { s.rec = r }

// DropCache implements blockdev.Backend: evict every clean cached
// object so subsequent reads genuinely pay network cost again. Dirty
// objects stay — staged data must survive a cache drop.
func (s *Store) DropCache() { s.cache.DropClean() }

// CacheLen reports resident objects (tests).
func (s *Store) CacheLen() int { return s.cache.Len() }

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
