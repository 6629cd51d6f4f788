package core

import (
	"encoding/binary"
	"fmt"

	"chameleondb/internal/wlog"
)

// hostState is the process-side metadata a file-backed store needs to reattach
// to its durable arena image after a real restart. On the simulated backend
// all of this lives in the Store struct and survives the in-process
// Crash/Recover cycle; across an exec boundary it must be durable, so the
// file backend persists it as the medium's host-metadata record (see
// pmem.Medium.WriteMeta) at every point where losing it would lose
// acknowledged data: whenever the log's segment directory changes, at boot,
// and at clean Close. Every record is written by the wlog meta hook, under
// the log's metadata mutex, so records are durable in the order of the
// directories they carry.
//
// Everything else recovery needs — shard manifests, tables, log entries — is
// already in the arena's durable image and is found from here: the manifest
// slot offsets locate the per-shard manifests, and those locate the tables
// and watermarks.
type hostState struct {
	fp configFingerprint

	// ArenaNext is the bump-allocator high-water mark at persist time. It can
	// trail table allocations made since the last segment-map change; recovery
	// closes the gap with ReserveFloor as it decodes each shard manifest.
	ArenaNext int64

	// Log segment directory: GC head, tail, and segment-index -> arena-offset
	// map. The record is rewritten when the directory changes, not when the
	// tail moves, so LogNext is the tail only in the record a clean Close
	// writes; in every other record it is the end of the highest mapped
	// segment. A reopen resumes from it either way: recovery scans every LSN
	// that could have been acknowledged, and no new append lands on an old one.
	LogHead int64
	LogNext int64
	Segs    map[int64]int64

	// Per-shard manifest slot locations (allocated once at first boot).
	ManifestSlotBytes int64
	ManifestOffs      []int64

	// Replication identity (see internal/repl). ReplID is the replication
	// lineage ID: a random string minted once per primary lifetime, adopted
	// by replicas at handshake. Two stores share an LSN history iff their IDs
	// match, so an unrelated primary whose bare epoch counter happens to
	// collide is still detected at handshake and fully resynced. ReplEpoch is
	// the replication epoch this store last served under — bumped by failover
	// promotion, so a deposed primary rejoining with a stale epoch is
	// detected at handshake and fully resynced instead of resurrecting
	// unacked writes. ReplApplied is a replica's durably-applied primary-LSN
	// watermark: the resume point for catch-up after a restart. All are zero
	// on stores that never replicated.
	ReplID      string
	ReplEpoch   int64
	ReplApplied int64
}

// configFingerprint pins the geometry a directory was created with. A reopen
// with a different geometry would misinterpret every arena offset, so it is
// rejected outright rather than recovered incorrectly.
type configFingerprint struct {
	Shards, ArenaBytes, LogBytes int64
	MemTableSlots, ABISlots      int64
	Levels, Ratio, MaxDumps      int64
}

func fingerprintOf(cfg Config) configFingerprint {
	return configFingerprint{
		Shards:        int64(cfg.Shards),
		ArenaBytes:    cfg.ArenaBytes,
		LogBytes:      cfg.LogBytes,
		MemTableSlots: int64(cfg.MemTableSlots),
		ABISlots:      int64(cfg.ABISlots),
		Levels:        int64(cfg.Levels),
		Ratio:         int64(cfg.Ratio),
		MaxDumps:      int64(cfg.GetProtect.MaxDumps),
	}
}

// hostStateVersion is the first word of every host-state record. It also
// stands for the log entry format of the directory's segments: version 4 logs
// entries without the stored key hash (wlog's 16 B header). A directory from
// an older build is refused, never reinterpreted — there is no second decoder.
const hostStateVersion = 4

// maxReplIDLen bounds the persisted (and wire) replication lineage ID. IDs
// the node mints are 40 hex chars; the bound rejects corrupt records.
const maxReplIDLen = 64

// hostStateMax bounds the encoded size of any host state a config can
// produce, so the medium's metadata slots can be sized before the store
// exists. The segment directory dominates: the log holds at most
// LogBytes/segmentSize live segments.
func hostStateMax(cfg Config) int64 {
	maxSegs := cfg.LogBytes/wlog.SegmentSizeFor(cfg.LogBytes) + 2
	n := int64(8) + 8*8 + 6*8 + 8 + maxReplIDLen + 8 + int64(cfg.Shards)*8 + 8 + maxSegs*16
	return (n + 4095) / 4096 * 4096
}

func encodeHostState(hs hostState) []byte {
	var buf []byte
	u64 := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	u64(hostStateVersion)
	u64(hs.fp.Shards)
	u64(hs.fp.ArenaBytes)
	u64(hs.fp.LogBytes)
	u64(hs.fp.MemTableSlots)
	u64(hs.fp.ABISlots)
	u64(hs.fp.Levels)
	u64(hs.fp.Ratio)
	u64(hs.fp.MaxDumps)
	u64(hs.ArenaNext)
	u64(hs.LogHead)
	u64(hs.LogNext)
	u64(hs.ManifestSlotBytes)
	u64(hs.ReplEpoch)
	u64(hs.ReplApplied)
	rid := hs.ReplID
	if len(rid) > maxReplIDLen {
		rid = rid[:maxReplIDLen]
	}
	u64(int64(len(rid)))
	buf = append(buf, rid...)
	u64(int64(len(hs.ManifestOffs)))
	for _, off := range hs.ManifestOffs {
		u64(off)
	}
	u64(int64(len(hs.Segs)))
	for idx, off := range hs.Segs {
		u64(idx)
		u64(off)
	}
	return buf
}

// decodeHostState parses an encoded host-state record. It must be total on
// arbitrary bytes — the record arrives from disk behind a checksum, but the
// fuzz target feeds it garbage directly.
func decodeHostState(b []byte) (hostState, error) {
	var hs hostState
	pos := 0
	u64 := func() (int64, error) {
		if pos+8 > len(b) {
			return 0, fmt.Errorf("core: truncated host state at byte %d", pos)
		}
		v := int64(binary.LittleEndian.Uint64(b[pos : pos+8]))
		pos += 8
		return v, nil
	}
	v, err := u64()
	if err != nil {
		return hs, err
	}
	if v != hostStateVersion {
		return hs, fmt.Errorf("core: host state version %d, want %d: the directory was written by a build with a different log entry format, and is not converted", v, hostStateVersion)
	}
	for _, dst := range []*int64{
		&hs.fp.Shards, &hs.fp.ArenaBytes, &hs.fp.LogBytes,
		&hs.fp.MemTableSlots, &hs.fp.ABISlots,
		&hs.fp.Levels, &hs.fp.Ratio, &hs.fp.MaxDumps,
		&hs.ArenaNext, &hs.LogHead, &hs.LogNext, &hs.ManifestSlotBytes,
		&hs.ReplEpoch, &hs.ReplApplied,
	} {
		if *dst, err = u64(); err != nil {
			return hs, err
		}
	}
	ridLen, err := u64()
	if err != nil {
		return hs, err
	}
	if ridLen < 0 || ridLen > maxReplIDLen {
		return hs, fmt.Errorf("core: host state repl ID length %d out of range", ridLen)
	}
	if pos+int(ridLen) > len(b) {
		return hs, fmt.Errorf("core: truncated host state repl ID at byte %d", pos)
	}
	hs.ReplID = string(b[pos : pos+int(ridLen)])
	pos += int(ridLen)
	nShards, err := u64()
	if err != nil {
		return hs, err
	}
	if nShards < 0 || nShards > 1<<16 || nShards != hs.fp.Shards {
		return hs, fmt.Errorf("core: host state lists %d manifests for %d shards", nShards, hs.fp.Shards)
	}
	hs.ManifestOffs = make([]int64, nShards)
	for i := range hs.ManifestOffs {
		if hs.ManifestOffs[i], err = u64(); err != nil {
			return hs, err
		}
		if hs.ManifestOffs[i] <= 0 {
			return hs, fmt.Errorf("core: host state manifest offset %d out of range", hs.ManifestOffs[i])
		}
	}
	nSegs, err := u64()
	if err != nil {
		return hs, err
	}
	if nSegs < 0 || nSegs > 1<<20 {
		return hs, fmt.Errorf("core: host state lists %d log segments", nSegs)
	}
	hs.Segs = make(map[int64]int64, nSegs)
	for i := int64(0); i < nSegs; i++ {
		idx, err := u64()
		if err != nil {
			return hs, err
		}
		off, err := u64()
		if err != nil {
			return hs, err
		}
		if idx < 0 || off <= 0 {
			return hs, fmt.Errorf("core: host state segment %d at offset %d out of range", idx, off)
		}
		if _, dup := hs.Segs[idx]; dup {
			return hs, fmt.Errorf("core: host state repeats segment %d", idx)
		}
		hs.Segs[idx] = off
	}
	return hs, nil
}

// logMetaHook is installed as the wlog meta hook on file-backed stores: it
// runs under the log's metadata mutex immediately after every segment-map
// change, so the durable segment directory always covers every LSN a session
// could have been acknowledged against. It is also the only writer of the
// host-metadata record: boot, SetReplState and Close ask the log to run it
// (SyncMeta, CloseMeta) instead of taking their own snapshot, which could
// reach the medium after — and so replace — a newer directory.
func (s *Store) logMetaHook(head, next int64, segs map[int64]int64) {
	hs := hostState{
		fp:                fingerprintOf(s.cfg),
		ArenaNext:         s.arena.InUse(),
		LogHead:           head,
		LogNext:           next,
		Segs:              segs,
		ManifestSlotBytes: s.shards[0].manifest.slotBytes,
		ManifestOffs:      make([]int64, len(s.shards)),
		ReplEpoch:         s.replEpoch.Load(),
		ReplApplied:       s.replApplied.Load(),
	}
	if p := s.replID.Load(); p != nil {
		hs.ReplID = *p
	}
	for i, sh := range s.shards {
		hs.ManifestOffs[i] = sh.manifest.off
	}
	s.arena.PersistMeta(encodeHostState(hs))
}
