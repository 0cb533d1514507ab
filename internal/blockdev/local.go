package blockdev

import (
	"math/rand"
	"sort"

	"bento/internal/costmodel"
	"bento/internal/trace"
	"bento/internal/vclock"
)

// localBackend is the RAM-backed NVMe model: the storage half of the
// historical Device, factored behind the Backend interface. Commands
// are priced by the cost model's Dev* entries and booked on a
// vclock.Resource with DevChannels service channels (queue-pair
// parallelism); writes land in a volatile write cache that a FLUSH
// promotes to the durable tier.
//
// Storage is sparse: absent blocks read as zeros, so multi-GiB devices
// cost host memory only for blocks actually written. A durable block's
// slice may be shared between data and persist; the first write after a
// FLUSH copies-on-write, so persist is never mutated in place.
//
// Buffers are recycled. A dirty block's data slice is private (it was
// copied-on-write or freshly allocated), so when FLUSH promotes it, the
// persist slice it supersedes is referenced by nothing and goes on the
// free list; the next copy-on-write takes it from there and overwrites
// it whole. The free list never holds more buffers than the largest
// write cache a FLUSH has promoted, and which recycled buffer a block
// receives cannot be observed: every byte of it is overwritten.
type localBackend struct {
	blockSize int
	data      map[int][]byte   // current contents (includes unflushed writes)
	persist   map[int][]byte   // durable contents (as of the last FLUSH)
	dirty     map[int]struct{} // blocks written since the last FLUSH
	dirtyList []int            // the same blocks in first-write order; walks use it, not the map
	free      [][]byte         // superseded durable buffers, referenced by nothing
	res       *vclock.Resource
	model     *costmodel.Model
}

// NewLocalBackend returns the RAM-backed local backend the Device uses
// by default. It is exported so factories that take an explicit
// Config.Backend (the storage conformance suite, for one) can construct
// the local implementation the same way they construct remote ones.
func NewLocalBackend(name string, blockSize int, model *costmodel.Model) Backend {
	return &localBackend{
		blockSize: blockSize,
		data:      make(map[int][]byte),
		persist:   make(map[int][]byte),
		dirty:     make(map[int]struct{}),
		res:       vclock.NewResource(name, model.DevChannels),
		model:     model,
	}
}

func (lb *localBackend) ReadBlock(now int64, blk int, buf []byte) (int64, error) {
	if b, ok := lb.data[blk]; ok {
		copy(buf, b)
	} else {
		clear(buf)
	}
	return lb.res.Acquire(now, int64(lb.model.DevRead(lb.blockSize))), nil
}

func (lb *localBackend) SubmitBlock(now int64, blk int, buf []byte) (int64, error) {
	if _, already := lb.dirty[blk]; already {
		copy(lb.data[blk], buf) // private since the last flush; overwrite in place
	} else {
		lb.data[blk] = lb.private(buf) // copy-on-write
		lb.dirty[blk] = struct{}{}
		lb.dirtyList = append(lb.dirtyList, blk)
	}
	return lb.res.Acquire(now, int64(lb.model.DevWrite(lb.blockSize))), nil
}

// private returns a copy of buf in a buffer no other map entry shares:
// a recycled one when the free list has any (the copy overwrites all of
// it, so it needs no zeroing), a new one otherwise.
func (lb *localBackend) private(buf []byte) []byte {
	n := len(lb.free)
	if n == 0 {
		return append(make([]byte, 0, lb.blockSize), buf...)
	}
	b := lb.free[n-1]
	lb.free[n-1] = nil
	lb.free = lb.free[:n-1]
	copy(b, buf)
	return b
}

// Flush promotes the whole write cache to the durable tier. It moves
// whole blocks and derives cost from the count alone.
func (lb *localBackend) Flush(now int64) (int64, error) {
	dirtyBytes := len(lb.dirtyList) * lb.blockSize
	for _, blk := range lb.dirtyList {
		if old, ok := lb.persist[blk]; ok {
			lb.free = append(lb.free, old) // data[blk] was copied-on-write away from it
		}
		lb.persist[blk] = lb.data[blk] // share; next write copies-on-write
	}
	lb.clean()
	return lb.res.AcquireSerial(now, int64(lb.model.DevFlush(dirtyBytes))), nil
}

// clean empties the dirty set. It deletes the listed keys rather than
// clearing the map: a cleared map keeps its peak capacity, and each
// later walk or clear of it would pay for every slot.
func (lb *localBackend) clean() {
	for _, blk := range lb.dirtyList {
		delete(lb.dirty, blk)
	}
	lb.dirtyList = lb.dirtyList[:0]
}

func (lb *localBackend) DirtyBlocks() int { return len(lb.dirtyList) }

func (lb *localBackend) Crash(keepFraction float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	sort.Ints(lb.dirtyList) // visit in block order, so a seed fully determines the outcome
	for _, blk := range lb.dirtyList {
		if rng.Float64() < keepFraction {
			// This unflushed write survives the power cut.
			lb.persist[blk] = lb.data[blk]
		}
	}
	lb.data = make(map[int][]byte, len(lb.persist))
	for blk, b := range lb.persist {
		lb.data[blk] = b // shared until the next write to blk copies-on-write
	}
	lb.clean()
	lb.res.Reset()
}

func (lb *localBackend) QueueDepth(now int64) int { return lb.res.InUse(now) }

func (lb *localBackend) ResourceStats() vclock.ResourceStats { return lb.res.Stats() }

func (lb *localBackend) Reset() { lb.res.Reset() }

// SetRecorder is a no-op: the Device front already counts commands and
// samples queue depth; the local backend has nothing more to say.
func (lb *localBackend) SetRecorder(*trace.Recorder) {}

// DropCache is a no-op: the local backend has no cache tier.
func (lb *localBackend) DropCache() {}
