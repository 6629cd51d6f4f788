package device

import (
	"fmt"
	"sync/atomic"

	"chameleondb/internal/simclock"
)

// Device is one simulated storage device instance. All timing methods charge
// virtual time to the caller's Clock and book transfer time on the device's
// shared media timeline, so concurrent workers contend for bandwidth exactly
// as threads sharing an iMC do. Device is safe for concurrent use.
type Device struct {
	prof      Profile
	readPipe  simclock.Timeline
	writePipe simclock.Timeline

	// concurrency is the number of workers the harness declares are
	// concurrently driving the device; it selects the point on the Figure 1
	// contention curve.
	concurrency atomic.Int32

	// Write-intensity window for read/write interference: wWinStart is the
	// window's virtual start time, wWinWork the pipe-work booked in it.
	wWinStart atomic.Int64
	wWinWork  atomic.Int64

	// fault is the installed fault-injection plan, nil when none.
	fault atomic.Pointer[FaultPlan]

	stats StatCounters
}

// interferenceWindow is the sliding window over which write intensity is
// averaged for the read/write interference penalty.
const interferenceWindow = 200_000 // 200 us

// noteWrite records write-pipe work for the interference window.
func (d *Device) noteWrite(now, dur int64) {
	if d.prof.ReadWriteInterferenceNs == 0 {
		return
	}
	start := d.wWinStart.Load()
	if gap := now - start; gap > interferenceWindow {
		// Roll the window forward; carry half the work as decay, or none
		// if the device sat idle for several windows.
		if d.wWinStart.CompareAndSwap(start, now) {
			if gap > 4*interferenceWindow {
				d.wWinWork.Store(0)
			} else {
				d.wWinWork.Store(d.wWinWork.Load() / 2)
			}
		}
	}
	d.wWinWork.Add(dur)
}

// readInterference returns the extra read latency implied by recent write
// intensity: utilization of the write pipe over the window, scaled by the
// profile's maximum penalty.
func (d *Device) readInterference(now int64) int64 {
	maxPenalty := d.prof.ReadWriteInterferenceNs
	if maxPenalty == 0 {
		return 0
	}
	start := d.wWinStart.Load()
	elapsed := now - start
	if elapsed <= 0 {
		elapsed = 1
	}
	if elapsed > 4*interferenceWindow {
		return 0 // stale window: no recent writes
	}
	if elapsed < interferenceWindow {
		elapsed = interferenceWindow
	}
	util := float64(d.wWinWork.Load()) / float64(elapsed)
	if util > 1 {
		util = 1
	}
	return int64(util * float64(maxPenalty))
}

// StatCounters aggregates media-level accounting, the simulated equivalent of
// Intel's ipmwatch readings used in the paper's Figure 17.
type StatCounters struct {
	LogicalBytesWritten atomic.Int64 // bytes the software asked to persist
	MediaBytesWritten   atomic.Int64 // bytes actually written to media (256 B-rounded)
	MediaBytesRead      atomic.Int64 // bytes read from media, incl. RMW reads
	WriteOps            atomic.Int64
	ReadOps             atomic.Int64
}

// Stats is a point-in-time copy of the device counters.
type Stats struct {
	LogicalBytesWritten int64
	MediaBytesWritten   int64
	MediaBytesRead      int64
	WriteOps            int64
	ReadOps             int64
}

// WriteAmplification is media bytes written divided by logical bytes written.
func (s Stats) WriteAmplification() float64 {
	if s.LogicalBytesWritten == 0 {
		return 0
	}
	return float64(s.MediaBytesWritten) / float64(s.LogicalBytesWritten)
}

func (s Stats) String() string {
	return fmt.Sprintf("logicalW=%d mediaW=%d mediaR=%d WA=%.2f",
		s.LogicalBytesWritten, s.MediaBytesWritten, s.MediaBytesRead, s.WriteAmplification())
}

// New creates a device with the given profile.
func New(p Profile) *Device {
	d := &Device{prof: p}
	d.concurrency.Store(1)
	return d
}

// Profile returns the device's timing profile.
func (d *Device) Profile() Profile { return d.prof }

// SetConcurrency declares how many workers are concurrently driving the
// device. It positions the device on its contention curve (Figure 1's iMC
// saturation behaviour). The harness calls this when it changes thread count.
func (d *Device) SetConcurrency(n int) {
	if n < 1 {
		n = 1
	}
	d.concurrency.Store(int32(n))
}

// Concurrency reports the declared worker count.
func (d *Device) Concurrency() int { return int(d.concurrency.Load()) }

// contentionFactor returns the multiplier applied to transfer durations to
// model post-saturation bandwidth decline: >= 1.0.
func (d *Device) contentionFactor() float64 {
	n := int(d.concurrency.Load())
	if n <= d.prof.MaxParallel || d.prof.ContentionSlope == 0 {
		return 1.0
	}
	return 1.0 + d.prof.ContentionSlope*float64(n-d.prof.MaxParallel)
}

// mediaSpan returns the first touched unit-aligned offset and the number of
// media bytes covered by [off, off+size).
func (d *Device) mediaSpan(off, size int64) (mediaBytes int64) {
	if size <= 0 {
		return 0
	}
	u := d.prof.AccessUnit
	first := off / u
	last := (off + size - 1) / u
	return (last - first + 1) * u
}

// ReadRandom charges one random read of size bytes at offset off: fixed
// latency plus transfer time, charged to the issuing clock only. Random
// reads do not reserve the shared pipe: the device serves small concurrent
// reads from parallel internal banks, so their cost is latency-dominated
// per issuer rather than mutually blocking. (Serializing them on a scalar
// timeline would also let a reservation made at a future virtual time block
// earlier arrivals — converting latency into artificial pipe blocking.)
func (d *Device) ReadRandom(c *simclock.Clock, off, size int64) {
	media := d.mediaSpan(off, size)
	d.stats.MediaBytesRead.Add(media)
	d.stats.ReadOps.Add(1)
	c.Advance(d.prof.ReadLatency + int64(float64(media)/d.prof.ReadBandwidth) + d.readInterference(c.Now()))
}

// ReadSeq charges a sequential (streaming) read of size bytes: transfer time
// only, amortizing the fixed latency away as a real prefetched scan would.
func (d *Device) ReadSeq(c *simclock.Clock, off, size int64) {
	media := d.mediaSpan(off, size)
	d.stats.MediaBytesRead.Add(media)
	d.stats.ReadOps.Add(1)
	dur := int64(float64(media) / d.prof.ReadBandwidth)
	c.AdvanceTo(d.readPipe.ReserveWork(c.Now(), dur))
}

// WritePersist charges persisting [off, off+size): the write is rounded up to
// the touched access units; if the range does not cover whole units, the
// device performs a read-modify-write and the partial units are charged as
// media reads as well. This is the mechanism behind the paper's Challenge 1.
// It returns the media bytes written, so callers can attribute them.
func (d *Device) WritePersist(c *simclock.Clock, off, size int64) (media int64) {
	if size <= 0 {
		return 0
	}
	media = d.mediaSpan(off, size)
	d.stats.LogicalBytesWritten.Add(size)
	d.stats.MediaBytesWritten.Add(media)
	d.stats.WriteOps.Add(1)
	if media > size {
		// Partial head/tail units are read before being rewritten.
		d.stats.MediaBytesRead.Add(media - size)
	}
	dur := int64(float64(media) * d.contentionFactor() / d.prof.WriteBandwidth)
	if media > size {
		// The RMW read occupies the pipe too.
		dur += int64(float64(media-size) / d.prof.ReadBandwidth)
	}
	// Interference counts the fence overhead per write op as well as the
	// transfer: many small persisted writes (Pmem-Hash's pattern) disturb
	// concurrent reads more than the same bytes written in large batches.
	d.noteWrite(c.Now(), dur+d.prof.WriteLatency)
	c.AdvanceTo(d.writePipe.ReserveWork(c.Now(), dur))
	c.Advance(d.prof.WriteLatency)
	return media
}

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	return Stats{
		LogicalBytesWritten: d.stats.LogicalBytesWritten.Load(),
		MediaBytesWritten:   d.stats.MediaBytesWritten.Load(),
		MediaBytesRead:      d.stats.MediaBytesRead.Load(),
		WriteOps:            d.stats.WriteOps.Load(),
		ReadOps:             d.stats.ReadOps.Load(),
	}
}

// ResetStats zeroes the counters; the harness calls it between experiment
// phases (e.g. after loading, before measuring).
func (d *Device) ResetStats() {
	d.stats.LogicalBytesWritten.Store(0)
	d.stats.MediaBytesWritten.Store(0)
	d.stats.MediaBytesRead.Store(0)
	d.stats.WriteOps.Store(0)
	d.stats.ReadOps.Store(0)
}

// ResetTimelines clears the media pipes and the interference window. Only
// safe between phases.
func (d *Device) ResetTimelines() {
	d.readPipe.Reset()
	d.writePipe.Reset()
	d.wWinStart.Store(0)
	d.wWinWork.Store(0)
}
