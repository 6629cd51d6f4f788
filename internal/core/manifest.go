package core

import (
	"encoding/binary"
	"fmt"

	"chameleondb/internal/hashtable"
	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

// Each shard persists a small manifest describing its table directory and
// recovery watermark. Manifests are written crash-atomically into two
// alternating slots: a slot carries a sequence number and a checksum, and
// recovery picks the valid slot with the highest sequence. A crash in the
// middle of a manifest write therefore falls back to the previous manifest,
// whose tables are only released *after* the new manifest is durable.
type manifestSlots struct {
	off       int64 // two slots of slotBytes each
	slotBytes int64
	seq       uint64
	buf       []byte // persistManifest's scratch: header + payload, reused
}

const manifestHeader = 24 // seq(8) + len(4) + pad(4) + checksum(8)

// manifestPayloadMax computes the worst-case payload for a config.
func manifestPayloadMax(cfg Config) int64 {
	tables := cfg.Ratio*(cfg.Levels-1) + cfg.GetProtect.MaxDumps + 4
	return int64(8*4 + tables*24 + 64)
}

// manifestAlloc reserves the shard's two manifest slots in the arena.
func (sh *shard) manifestAlloc() error {
	need := manifestHeader + manifestPayloadMax(sh.store.cfg)
	slot := (need + 255) / 256 * 256
	off, err := sh.store.arena.Alloc(2 * slot)
	if err != nil {
		return err
	}
	sh.manifest = manifestSlots{off: off, slotBytes: slot}
	return nil
}

// appendManifest appends the shard's serialized table directory to buf.
func (sh *shard) appendManifest(buf []byte, recoverLSN int64) []byte {
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	table := func(p *ptable) {
		if p == nil {
			u64(0)
			u64(0)
			u64(0)
			return
		}
		u64(uint64(p.t.Offset()))
		u64(uint64(p.t.Cap()))
		u64(uint64(p.t.Len()))
	}
	u64(uint64(recoverLSN))
	u64(uint64(sh.persistedMaxLSN))
	table(sh.last)
	u64(uint64(len(sh.dumped)))
	for _, d := range sh.dumped {
		table(d)
	}
	u64(uint64(len(sh.levels)))
	for _, lvl := range sh.levels {
		u64(uint64(len(lvl)))
		for _, t := range lvl {
			table(t)
		}
	}
	return buf
}

// persistManifest computes the recovery watermark and writes the manifest to
// the next slot. Called with sh.mu held after every structural change.
func (sh *shard) persistManifest(c *simclock.Clock) {
	w := sh.store.log.MinNextLSN()
	if sh.memMinLSN != 0 && sh.memMinLSN < w {
		w = sh.memMinLSN
	}
	// Frozen MemTables are volatile until their flush job runs, so their
	// entries must stay inside the replay window exactly like the live
	// MemTable's.
	for _, fm := range sh.frozen {
		if fm.minLSN != 0 && fm.minLSN < w {
			w = fm.minLSN
		}
	}
	if sh.spillMinLSN != 0 && sh.spillMinLSN < w {
		w = sh.spillMinLSN
	}
	if rp := sh.store.replayPos.Load(); rp < w {
		// A recovery replay is in progress: everything past the cursor is
		// still only in the log.
		w = rp
	}
	sh.recoverLSN = w
	// Header and payload share one scratch buffer, kept across calls: this
	// runs after every flush and compaction.
	if sh.manifest.buf == nil {
		sh.manifest.buf = make([]byte, manifestHeader, sh.manifest.slotBytes)
	}
	rec := sh.appendManifest(sh.manifest.buf[:manifestHeader], w)
	sh.manifest.buf = rec
	if int64(len(rec)) > sh.manifest.slotBytes {
		// Dumped-table overrun beyond the sized maximum cannot happen with a
		// validated config; guard loudly in case geometry changes.
		panic(fmt.Sprintf("core: manifest payload %d exceeds slot %d", len(rec)-manifestHeader, sh.manifest.slotBytes))
	}
	sh.manifest.seq++
	slotOff := sh.manifest.off + int64(sh.manifest.seq%2)*sh.manifest.slotBytes
	payload := rec[manifestHeader:]
	binary.LittleEndian.PutUint64(rec[0:8], sh.manifest.seq)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[16:24], xhash.Sum64(payload))
	sh.store.media[mediaManifest].Add(sh.store.arena.StorePersist(c, slotOff, rec))
}

// readManifest loads the newest valid manifest slot and rebuilds the shard's
// table directory from it. Called during recovery with sh.mu held.
func (sh *shard) readManifest(c *simclock.Clock) error {
	bestSeq := uint64(0)
	var bestPayload []byte
	for slot := int64(0); slot < 2; slot++ {
		off := sh.manifest.off + slot*sh.manifest.slotBytes
		hdr := sh.store.arena.ReadRandom(c, off, manifestHeader)
		seq := binary.LittleEndian.Uint64(hdr[0:8])
		plen := int64(binary.LittleEndian.Uint32(hdr[8:12]))
		sum := binary.LittleEndian.Uint64(hdr[16:24])
		if seq == 0 || plen <= 0 || plen+manifestHeader > sh.manifest.slotBytes {
			continue
		}
		payload := sh.store.arena.ReadRandom(c, off+manifestHeader, plen)
		if xhash.Sum64(payload) != sum {
			continue
		}
		if seq > bestSeq {
			bestSeq = seq
			bestPayload = payload
		}
	}
	if bestPayload == nil {
		return fmt.Errorf("core: shard %d has no valid manifest", sh.id)
	}
	sh.manifest.seq = bestSeq
	sh.abiBehind = sh.abi != nil
	return sh.decodeManifest(bestPayload)
}

func (sh *shard) decodeManifest(b []byte) error {
	pos := 0
	// Reject directories larger than persistManifest's sized slot: a
	// corrupted (but checksum-colliding or tampered) manifest must fail
	// recovery here rather than panic on the next checkpoint.
	maxTables := sh.store.cfg.Ratio*(sh.store.cfg.Levels-1) + sh.store.cfg.GetProtect.MaxDumps + 4
	decoded := 0
	u64 := func() (uint64, error) {
		if pos+8 > len(b) {
			return 0, fmt.Errorf("core: truncated manifest in shard %d", sh.id)
		}
		v := binary.LittleEndian.Uint64(b[pos : pos+8])
		pos += 8
		return v, nil
	}
	table := func() (*ptable, error) {
		if decoded++; decoded > maxTables {
			return nil, fmt.Errorf("core: manifest in shard %d lists more than %d tables", sh.id, maxTables)
		}
		off, err := u64()
		if err != nil {
			return nil, err
		}
		capSlots, err := u64()
		if err != nil {
			return nil, err
		}
		count, err := u64()
		if err != nil {
			return nil, err
		}
		if off == 0 {
			return nil, nil
		}
		t, err := hashtable.OpenPmemTable(sh.store.arena, int64(off), int(capSlots), int(count))
		if err != nil {
			return nil, err
		}
		// On a file-backed reattach the restored allocator mark was persisted
		// at log-segment granularity and can trail table allocations this
		// manifest references; raise it past every referenced region so fresh
		// allocations cannot land on recovered tables. No-op after an
		// in-process crash (the mark never went backwards).
		sh.store.arena.ReserveFloor(t.Offset() + t.BlockBytes())
		// Accelerators (bloom filters, pinned copies) are volatile; the
		// recovery path rebuilds them after replay.
		return &ptable{t: t}, nil
	}
	w, err := u64()
	if err != nil {
		return err
	}
	sh.recoverLSN = int64(w)
	pm, err := u64()
	if err != nil {
		return err
	}
	sh.persistedMaxLSN = int64(pm)
	if sh.last, err = table(); err != nil {
		return err
	}
	nd, err := u64()
	if err != nil {
		return err
	}
	sh.dumped = nil
	for i := uint64(0); i < nd; i++ {
		t, err := table()
		if err != nil {
			return err
		}
		if t != nil {
			sh.dumped = append(sh.dumped, t)
		}
	}
	nl, err := u64()
	if err != nil {
		return err
	}
	if int(nl) != len(sh.levels) {
		return fmt.Errorf("core: manifest has %d levels, config has %d", nl, len(sh.levels))
	}
	for lvl := range sh.levels {
		nt, err := u64()
		if err != nil {
			return err
		}
		sh.levels[lvl] = nil
		for i := uint64(0); i < nt; i++ {
			t, err := table()
			if err != nil {
				return err
			}
			if t != nil {
				sh.levels[lvl] = append(sh.levels[lvl], t)
			}
		}
	}
	return nil
}
