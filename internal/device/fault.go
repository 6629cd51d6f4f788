package device

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
)

// ErrInjected is the transient fault returned by allocation paths while a
// FaultPlan with a non-zero ErrorProb is installed. Callers are expected to
// treat it like a momentary out-of-resources condition and retry.
var ErrInjected = errors.New("device: injected transient fault")

// ErrPowerFailed is returned by operations that refuse to commit host-side
// metadata after the simulated power failure of an installed FaultPlan has
// triggered. Stores whose "manifest" is implicit host state (the baselines
// keep their table directories as ordinary Go objects across Crash) use it to
// model a fail-safe atomic metadata commit: either the commit's media writes
// all happened before the failure, or the commit never happened.
var ErrPowerFailed = errors.New("device: simulated power failure")

// TearMode selects what survives of the persist that a FaultPlan crashes on.
// The media commits whole 256 B lines in address order, so a torn persist is
// a durable prefix of the touched lines: single-line persists are atomic, and
// the final line of a multi-line persist never commits alone out of order.
type TearMode int

const (
	// TearNone loses the crashing persist entirely (the power fails just
	// before any of its lines reach media).
	TearNone TearMode = iota
	// TearFirstLine durably commits only the first touched line (nothing for
	// single-line persists, which are atomic).
	TearFirstLine
	// TearHalf durably commits the first half of the touched lines.
	TearHalf
	// TearRandom durably commits a seeded random prefix of 0..lines-1 lines.
	TearRandom
)

// FaultPlan describes the faults to inject into one device. Install it with
// Device.InstallFaultPlan after the store has booted (boot-time persists are
// then excluded from the crash-point numbering, keeping indices stable across
// a count run and its crash re-runs). A plan is one-shot: install a fresh
// plan per run.
type FaultPlan struct {
	// CrashAtPersist is the 1-based persist event at which the simulated
	// power fails. Zero never triggers, which turns the plan into a pure
	// persist counter for crash-point enumeration.
	CrashAtPersist int64
	// Tear selects how much of the crashing persist commits.
	Tear TearMode
	// ErrorProb injects ErrInjected into allocation paths with this
	// probability per attempt (0 disables injection).
	ErrorProb float64
	// Seed drives TearRandom and error injection.
	Seed int64

	mu        sync.Mutex
	rng       *rand.Rand
	persists  int64
	triggered bool

	// flag mirrors triggered for the lock-free PowerFailed checks.
	flag atomic.Bool
}

// Persists returns how many persist events the plan has observed (the
// crashing one included, frozen ones after it excluded).
func (p *FaultPlan) Persists() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.persists
}

// Triggered reports whether the simulated power failure has happened.
func (p *FaultPlan) Triggered() bool { return p.flag.Load() }

// NotePersist accounts one persist of [off, off+size) against the plan and
// returns how many leading bytes of the range should reach durable media and
// whether the persist proceeds normally (charging the device). After the
// trigger every persist is a durability no-op: the process is dead, nothing
// further reaches media.
func (p *FaultPlan) NotePersist(unit, off, size int64) (keep int64, normal bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.triggered {
		return 0, false
	}
	p.persists++
	if p.CrashAtPersist == 0 || p.persists != p.CrashAtPersist {
		return size, true
	}
	p.triggered = true
	p.flag.Store(true)
	first := off / unit
	last := (off + size - 1) / unit
	lines := last - first + 1
	var k int64
	switch p.Tear {
	case TearFirstLine:
		if lines > 1 {
			k = 1
		}
	case TearHalf:
		k = lines / 2
	case TearRandom:
		if lines > 1 {
			k = p.rand().Int63n(lines)
		}
	}
	// k < lines always: a fully-committed persist is indistinguishable in
	// durable state from a clean cut before the next persist, which the
	// sweep already covers at index CrashAtPersist+1.
	if k == 0 {
		return 0, false
	}
	keep = (first+k)*unit - off
	if keep > size {
		keep = size
	}
	return keep, false
}

// AllocError possibly injects a transient allocation fault.
func (p *FaultPlan) AllocError() error {
	if p.ErrorProb <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.triggered && p.rand().Float64() < p.ErrorProb {
		return ErrInjected
	}
	return nil
}

// rand lazily builds the plan's seeded generator. Called with p.mu held.
func (p *FaultPlan) rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(p.Seed))
	}
	return p.rng
}

// InstallFaultPlan installs (or with nil, removes) the device's fault plan.
// Recovery code must run with the plan removed: a triggered plan freezes all
// persists, which would make recovery's own checkpoints silently volatile.
func (d *Device) InstallFaultPlan(p *FaultPlan) { d.fault.Store(p) }

// FaultPlan returns the installed fault plan, or nil.
func (d *Device) FaultPlan() *FaultPlan { return d.fault.Load() }

// PowerFailed reports whether an installed fault plan has triggered its
// simulated power failure. Store code uses it to refuse host-side metadata
// commits that would outlive the media they describe.
func (d *Device) PowerFailed() bool {
	p := d.FaultPlan()
	return p != nil && p.Triggered()
}
