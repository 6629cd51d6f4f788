// Package simclock provides deterministic virtual time for the simulated
// storage devices in this repository.
//
// Real Optane persistent memory operates at nanosecond latencies that cannot
// be reproduced with wall-clock sleeps, and the machine running this
// reproduction has no Optane hardware at all. Instead, every worker
// (foreground request thread or background compaction thread) owns a Clock
// that accumulates virtual nanoseconds, and every shared resource (a device's
// media pipe, a shard's critical section) is a Timeline on which work
// reserves time. Throughput and latency experiments are computed from these
// virtual clocks, which makes results deterministic in shape and independent
// of host speed.
package simclock

import "sync/atomic"

// Clock is a per-worker virtual clock measured in nanoseconds.
// A Clock is owned by a single goroutine and is not safe for concurrent use.
type Clock struct {
	now int64
}

// New returns a Clock starting at the given virtual time.
func New(start int64) *Clock { return &Clock{now: start} }

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d nanoseconds and returns the new time.
// Negative d is ignored.
func (c *Clock) Advance(d int64) int64 {
	if d > 0 {
		c.now += d
	}
	return c.now
}

// AdvanceTo moves the clock forward to time t. If t is in the clock's past,
// the clock is unchanged: virtual time never runs backwards.
func (c *Clock) AdvanceTo(t int64) {
	if t > c.now {
		c.now = t
	}
}

// Timeline models a shared serial resource: a device's media pipe or a
// shard's critical section. Work reserves a duration on the timeline; if the
// resource is busy at the requested start time, the reservation is pushed
// back, which is exactly the queueing delay a real thread would observe.
// Timeline is safe for concurrent use.
type Timeline struct {
	busy atomic.Int64
}

// Reserve books dur nanoseconds on the timeline no earlier than virtual time
// at, and returns the completion time. Reservations are serialized: a
// reservation starts at max(at, end of previous reservation).
func (t *Timeline) Reserve(at, dur int64) (end int64) {
	if dur < 0 {
		dur = 0
	}
	for {
		b := t.busy.Load()
		start := at
		if b > start {
			start = b
		}
		end = start + dur
		if t.busy.CompareAndSwap(b, end) {
			return end
		}
	}
}

// ReserveWork books dur nanoseconds of *work* on the timeline: if the work
// frontier is behind the arrival time (the resource has spare capacity), the
// request completes at at+dur and the frontier only accumulates the work; if
// the frontier is ahead (backlog), the request queues behind it. Unlike
// Reserve, an arrival in the idle future never drags the frontier forward
// over the gap, so a long-running operation that touches the resource at a
// late virtual time cannot block earlier arrivals from using the idle
// capacity in between. This is the right semantics for bandwidth-style
// resources (device pipes); Reserve remains the right semantics for strict
// critical sections.
func (t *Timeline) ReserveWork(at, dur int64) (end int64) {
	if dur < 0 {
		dur = 0
	}
	for {
		b := t.busy.Load()
		if !t.busy.CompareAndSwap(b, b+dur) {
			continue
		}
		if at >= b {
			return at + dur
		}
		return b + dur
	}
}

// Peek returns the time at which the timeline becomes free.
func (t *Timeline) Peek() int64 { return t.busy.Load() }

// Reset clears the frontier back to time zero. Only safe when no
// reservations are in flight; used by the benchmark harness between
// experiments and by crash simulation.
func (t *Timeline) Reset() {
	t.busy.Store(0)
}

// Group tracks a set of worker clocks so the harness can compute the
// makespan (elapsed virtual wall time) of a parallel phase.
type Group struct {
	clocks []*Clock
	start  int64
}

// NewGroup creates a group of n fresh clocks all starting at time start.
func NewGroup(n int, start int64) *Group {
	g := &Group{clocks: make([]*Clock, n), start: start}
	for i := range g.clocks {
		g.clocks[i] = New(start)
	}
	return g
}

// Clock returns the i-th worker clock.
func (g *Group) Clock(i int) *Clock { return g.clocks[i] }

// Len returns the number of clocks in the group.
func (g *Group) Len() int { return len(g.clocks) }

// Makespan returns the elapsed virtual time of the phase: the maximum clock
// value minus the common start time.
func (g *Group) Makespan() int64 {
	var maxNow int64
	for _, c := range g.clocks {
		if c.now > maxNow {
			maxNow = c.now
		}
	}
	if maxNow < g.start {
		return 0
	}
	return maxNow - g.start
}

// Sync advances every clock in the group to the group's maximum time and
// returns it. Used between experiment phases so a new phase starts from a
// common barrier, as real threads would after a join.
func (g *Group) Sync() int64 {
	var maxNow int64
	for _, c := range g.clocks {
		if c.now > maxNow {
			maxNow = c.now
		}
	}
	for _, c := range g.clocks {
		c.AdvanceTo(maxNow)
	}
	return maxNow
}
