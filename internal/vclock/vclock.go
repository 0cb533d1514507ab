// Package vclock provides virtual-time accounting for the simulated kernel.
//
// Every simulated task (an application thread executing a system call, a
// FUSE daemon worker, a journal commit thread) owns a Clock. Costs charged
// by the cost model advance the clock; the clock never reads wall time, so
// benchmark results are a function of the model alone and are stable across
// host machines.
//
// Shared hardware — NVMe queue pairs, a single-threaded FUSE daemon — is a
// Resource with a fixed number of service channels. A task asking the
// resource to perform work at virtual time `now` receives a completion time
// of max(now, earliest-free-channel) + service. Issuing several requests
// before advancing the clock models asynchronous (queued) submission;
// advancing the clock to each completion before issuing the next models
// synchronous submission. The contention behaviour of both patterns emerges
// from the same primitive.
package vclock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is a per-task virtual clock measured in nanoseconds since the start
// of the simulation. A Clock must only be used by one goroutine at a time;
// the atomic storage exists so monitors (e.g. deadlock watchdogs) may read
// it concurrently.
type Clock struct {
	ns atomic.Int64
}

// NewClock returns a clock positioned at virtual time zero.
func NewClock() *Clock { return &Clock{} }

// NewClockAt returns a clock positioned at the given virtual time. It is
// used to fork worker clocks from a parent at simulation start.
func NewClockAt(t time.Duration) *Clock {
	c := &Clock{}
	c.ns.Store(int64(t))
	return c
}

// Now reports the current virtual time.
func (c *Clock) Now() time.Duration { return time.Duration(c.ns.Load()) }

// NowNS reports the current virtual time in integer nanoseconds.
func (c *Clock) NowNS() int64 { return c.ns.Load() }

// Advance moves the clock forward by d. Negative durations are ignored so
// that cost-model entries may be zeroed without callers special-casing.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.ns.Add(int64(d))
	}
}

// AdvanceNS moves the clock forward by ns nanoseconds (non-negative).
func (c *Clock) AdvanceNS(ns int64) {
	if ns > 0 {
		c.ns.Add(ns)
	}
}

// SetNS hard-positions the clock at the absolute virtual time ns, moving
// backwards if needed. It exists for task recycling: a worker task reused
// across serialized batches (the read-ahead fill task) is rebased to each
// batch's submission time, exactly as if a fresh task had been forked
// there. General code must use AdvanceTo — virtual time within one task's
// execution never runs backwards.
func (c *Clock) SetNS(ns int64) { c.ns.Store(ns) }

// AdvanceTo moves the clock forward to the absolute virtual time ns. It is
// a no-op if the clock is already at or past ns; virtual time never runs
// backwards.
func (c *Clock) AdvanceTo(ns int64) {
	for {
		cur := c.ns.Load()
		if ns <= cur {
			return
		}
		if c.ns.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// ResourceStats summarizes use of a Resource.
type ResourceStats struct {
	Ops        int64         // completed service requests
	BusyTime   time.Duration // summed service time across channels
	MaxBacklog time.Duration // largest queueing delay observed
}

// Resource models shared hardware with a fixed number of identical service
// channels (NVMe queue pairs, daemon worker threads). It is safe for
// concurrent use.
type Resource struct {
	mu         sync.Mutex
	name       string
	free       []int64 // next-free virtual time per channel
	ops        int64
	busyNS     int64
	maxBacklog int64
}

// NewResource creates a resource with the given number of service channels.
// channels must be >= 1.
func NewResource(name string, channels int) *Resource {
	if channels < 1 {
		panic(fmt.Sprintf("vclock: resource %q needs >=1 channel, got %d", name, channels))
	}
	return &Resource{name: name, free: make([]int64, channels)}
}

// Name reports the name the resource was created with.
func (r *Resource) Name() string { return r.name }

// Channels reports the number of service channels.
func (r *Resource) Channels() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.free)
}

// Acquire schedules `service` nanoseconds of work on a channel for a
// request arriving at virtual time `now`, and returns the completion
// time. The caller decides whether to wait (advance its clock to the
// completion) or to continue issuing work (asynchronous submission).
//
// Channel choice is best-fit: the channel whose free time is closest
// below `now` (packing work densely with no idle gap), falling back to
// the earliest-free channel when all are busy past `now`. Min-free
// selection would strand the idle interval [free, now) on a mostly-idle
// channel every time a caller runs ahead, silently discarding capacity.
func (r *Resource) Acquire(now, service int64) (completion int64) {
	_, _, completion = r.AcquireInfo(now, service)
	return completion
}

// AcquireInfo is Acquire plus placement: it also reports which channel
// served the request and when service began (completion - service, after
// queueing). Tracing uses it to lay request spans on per-channel lane
// tracks, where they are non-overlapping by construction — a channel's
// free time only moves forward — so span-nesting analyzers stay happy.
func (r *Resource) AcquireInfo(now, service int64) (channel int, start, completion int64) {
	if service < 0 {
		service = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	best := -1
	for i := range r.free {
		if r.free[i] <= now {
			if best < 0 || r.free[i] > r.free[best] {
				best = i
			}
		}
	}
	if best < 0 {
		best = 0
		for i := 1; i < len(r.free); i++ {
			if r.free[i] < r.free[best] {
				best = i
			}
		}
	}
	start = now
	if r.free[best] > start {
		start = r.free[best]
	}
	if backlog := start - now; backlog > r.maxBacklog {
		r.maxBacklog = backlog
	}
	completion = start + service
	r.free[best] = completion
	r.ops++
	r.busyNS += service
	return best, start, completion
}

// AcquireSerial schedules work that must run after all previously scheduled
// work on every channel has finished (a full barrier), e.g. a device FLUSH
// that cannot be reordered with queued writes. It returns the completion
// time and leaves every channel busy until then.
func (r *Resource) AcquireSerial(now, service int64) (completion int64) {
	if service < 0 {
		service = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start := now
	for _, f := range r.free {
		if f > start {
			start = f
		}
	}
	if backlog := start - now; backlog > r.maxBacklog {
		r.maxBacklog = backlog
	}
	completion = start + service
	for i := range r.free {
		r.free[i] = completion
	}
	r.ops++
	r.busyNS += service
	return completion
}

// Truncate rewinds channel ch's booked horizon to virtual time at,
// refunding the cancelled tail from the busy-time accounting. It backs
// hedged-request cancellation: when a hedge wins, the loser's lane is
// released at the winner's completion instead of staying busy for the
// full booked service. Callers must not truncate below the start of
// the booking being cancelled; a truncation at or beyond the channel's
// current horizon is a no-op.
func (r *Resource) Truncate(ch int, at int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ch < 0 || ch >= len(r.free) || at >= r.free[ch] {
		return
	}
	r.busyNS -= r.free[ch] - at
	if r.busyNS < 0 {
		r.busyNS = 0
	}
	r.free[ch] = at
}

// InUse reports how many channels are still busy at virtual time now —
// the instantaneous queue occupancy a monitor would observe. Tracing
// samples it for device queue-depth counter tracks.
func (r *Resource) InUse(now int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.free {
		if f > now {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of accumulated statistics.
func (r *Resource) Stats() ResourceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResourceStats{
		Ops:        r.ops,
		BusyTime:   time.Duration(r.busyNS),
		MaxBacklog: time.Duration(r.maxBacklog),
	}
}

// Reset clears channel occupancy and statistics. Benchmarks call it between
// phases so warmup traffic does not bill the measured phase.
func (r *Resource) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.free {
		r.free[i] = 0
	}
	r.ops, r.busyNS, r.maxBacklog = 0, 0, 0
}
