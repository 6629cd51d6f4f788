package hashtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

// hashWithBuckets returns a hash whose candidate buckets in a two-choice
// table of n buckets of size slots are b1 and b1+1, starting at slot sub
// within either: bits 32..49 are zero, salt fills bits 50 and up, which homes
// never reads, and low picks the low 32 bits within the range that keeps b1
// and sub.
func hashWithBuckets(n, size, b1, sub int, salt, low uint64) uint64 {
	capacity := uint64(n * size)
	home := uint64(b1*size + sub)
	first := (home<<32 + capacity - 1) / capacity
	last := ((home+1)<<32 + capacity - 1) / capacity // exclusive
	return salt<<50 | (first + low%(last-first))
}

// hashWithLines is hashWithBuckets for a two-choice PmemTable's lines.
func hashWithLines(lines, line1, sub int, salt, low uint64) uint64 {
	return hashWithBuckets(lines, slotsPerLine, line1, sub, salt, low)
}

// lineReads returns the random line reads a Get of h costs.
func lineReads(t *testing.T, tb *PmemTable, c *simclock.Clock, h uint64) (Slot, bool, int64) {
	t.Helper()
	before := tb.arena.Device().Stats().ReadOps
	s, ok := tb.Get(c, h)
	return s, ok, tb.arena.Device().Stats().ReadOps - before
}

// checkLineInvariant decodes a two-choice table and checks that every entry
// sits in its first line, or in its second while the first is full.
func checkLineInvariant(t *testing.T, tb *PmemTable) {
	t.Helper()
	img := tb.arena.Bytes(tb.Offset(), tb.SizeBytes())
	fill := make([]int, tb.lines)
	for i := range tb.cap {
		if decodeSlot(img[i*SlotSize:]).Ref != 0 {
			fill[i/slotsPerLine]++
		}
	}
	for i := range tb.cap {
		s := decodeSlot(img[i*SlotSize:])
		if s.Ref == 0 {
			continue
		}
		line1, line2, _ := lineHomes(s.Hash, tb.lines)
		switch at := uint64(i / slotsPerLine); {
		case at == line1:
		case at == line2 && fill[line1] == slotsPerLine:
		default:
			t.Fatalf("hash %#x sits in line %d; its lines are %d (%d full) and %d", s.Hash, at, line1, fill[line1], line2)
		}
	}
}

// TestFittedTableProperty builds two-choice tables at the fill the engine
// writes them at, against a map oracle, with random hashes over many seeds:
// no build takes a line more than asked, everything inserted is found with
// its newest reference (tombstones included), nothing else is, Iterate
// yields exactly Len() slots, every entry keeps the line invariant, and
// every hit and every miss reads at most two lines. 16 is the one-line table
// fitLines leaves a power of two; it reads one line.
func TestFittedTableProperty(t *testing.T) {
	for _, capacity := range []int{16, 48, 80, 1040, 4112, 18384, 18448, 65552} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			seeds := 20
			if capacity > 5000 {
				seeds = 3
			}
			for seed := range seeds {
				r := rand.New(rand.NewSource(int64(seed)))
				a := pmem.NewArena(device.New(device.OptanePmem), 4<<20)
				c := simclock.New(0)
				n := capacity * 95 / 100
				// The stream interleaves first occurrences with older
				// duplicates of hashes already seen; the first wins.
				var stream []Slot
				oracle := make(map[uint64]uint64, n)
				var seen []uint64
				for len(oracle) < n {
					if len(seen) > 0 && r.Intn(5) == 0 {
						stream = append(stream, Slot{Hash: seen[r.Intn(len(seen))], Ref: MakeRef(1<<40, false)})
						continue
					}
					h := r.Uint64()
					if _, dup := oracle[h]; dup || h == 0 {
						continue
					}
					ref := MakeRef(int64(len(stream))+1, r.Intn(10) == 0)
					oracle[h] = ref
					seen = append(seen, h)
					stream = append(stream, Slot{Hash: h, Ref: ref})
				}
				tb, media, err := BuildPmemTable(c, a, capacity, func(yield func(Slot) bool) {
					for _, s := range stream {
						if !yield(s) {
							return
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if tb.Cap() != capacity || tb.Len() != n {
					t.Fatalf("seed %d: Cap, Len = %d, %d; want %d, %d", seed, tb.Cap(), tb.Len(), capacity, n)
				}
				if want := int64(capacity) * SlotSize; tb.SizeBytes() != want || media != want {
					t.Fatalf("persisted %d B (media %d), want the table's %d", tb.SizeBytes(), media, want)
				}
				if twoChoice(capacity) {
					checkLineInvariant(t, tb)
				}
				for h, want := range oracle {
					s, ok, reads := lineReads(t, tb, c, h)
					if !ok || s.Ref != want || reads > 2 {
						t.Fatalf("seed %d: get %#x = %+v, %v after %d line reads; want ref %#x within 2", seed, h, s, ok, reads, want)
					}
				}
				for range n {
					h := r.Uint64()
					if _, present := oracle[h]; present {
						continue
					}
					if _, ok, reads := lineReads(t, tb, c, h); ok || reads > 2 {
						t.Fatalf("seed %d: absent hash %#x found=%v after %d line reads", seed, h, ok, reads)
					}
				}
				yielded, got := 0, 0
				tb.Iterate(func(s Slot) bool {
					yielded++
					if oracle[s.Hash] == s.Ref {
						got++
					}
					return true
				})
				if yielded != n || got != n {
					t.Fatalf("Iterate yielded %d slots, %d of them the %d entries", yielded, got, n)
				}
			}
		})
	}
}

// TestFittedTableProbeWraps starts three probes in the last slot of a line
// of a two-choice table: the second and third must land in the same line's
// slots 0 and 1, not in the next line, and nothing may land past the table's
// end in the slack of its block.
func TestFittedTableProbeWraps(t *testing.T) {
	const capacity, lines = 48, 3
	a := newArena(t)
	c := simclock.New(0)
	var hs [3]uint64
	for i := range hs {
		hs[i] = hashWithLines(lines, 1, slotsPerLine-1, uint64(i)+1, uint64(i))
	}
	tb, _, err := BuildPmemTable(c, a, capacity, func(yield func(Slot) bool) {
		for i, h := range hs {
			yield(Slot{Hash: h, Ref: MakeRef(int64(i)+1, false)})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, slot := range []int64{2*slotsPerLine - 1, slotsPerLine, slotsPerLine + 1} {
		got := decodeSlot(a.Bytes(tb.Offset()+slot*SlotSize, SlotSize))
		if got.Hash != hs[i] {
			t.Fatalf("slot %d holds hash %#x, want entry %d (%#x)", slot, got.Hash, i, hs[i])
		}
	}
	for i, h := range hs {
		if s, ok, reads := lineReads(t, tb, c, h); !ok || s.LSN() != int64(i)+1 || reads != 1 {
			t.Fatalf("get of wrapped entry %d = %+v, %v after %d line reads", i, s, ok, reads)
		}
	}
	if slack := a.Bytes(tb.Offset()+tb.SizeBytes(), tb.BlockBytes()-tb.SizeBytes()); !bytes.Equal(slack, make([]byte, len(slack))) {
		t.Fatal("build wrote past the table into its block's slack")
	}
}

// TestTwoChoiceOneMoreLine forces 40 hashes onto the same two lines of a
// three-line table, which hold 32: the build must take the one-more-line
// path — to five lines, since four would be a power of two — and every hash
// must still answer within two line reads. Hashes that agree in all of bits
// 0..49 no number of lines can part; they get a linear-probing table.
func TestTwoChoiceOneMoreLine(t *testing.T) {
	build := func(hs []uint64) *PmemTable {
		t.Helper()
		tb, _, err := BuildPmemTable(simclock.New(0), newArena(t), 48, func(yield func(Slot) bool) {
			for i, h := range hs {
				yield(Slot{Hash: h, Ref: MakeRef(int64(i)+1, false)})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	r := rand.New(rand.NewSource(1))
	spread := make([]uint64, 40)
	for i := range spread {
		spread[i] = hashWithLines(3, 0, r.Intn(slotsPerLine), r.Uint64(), r.Uint64())
		if line1, line2, _ := lineHomes(spread[i], 3); line1 != 0 || line2 != 1 {
			t.Fatalf("hash %d has lines %d, %d at three lines", i, line1, line2)
		}
	}
	degenerate := make([]uint64, 40)
	for i := range degenerate {
		degenerate[i] = uint64(i+1)<<50 | 12345
	}
	for _, tc := range []struct {
		name    string
		hs      []uint64
		wantCap int
	}{
		{"Spread", spread, 80},
		{"Degenerate", degenerate, 128},
	} {
		tb := build(tc.hs)
		if tb.Cap() != tc.wantCap || tb.Len() != len(tc.hs) {
			t.Fatalf("%s: Cap, Len = %d, %d; want %d, %d", tc.name, tb.Cap(), tb.Len(), tc.wantCap, len(tc.hs))
		}
		c := simclock.New(0)
		for i, h := range tc.hs {
			s, ok, reads := lineReads(t, tb, c, h)
			if !ok || s.LSN() != int64(i)+1 || (twoChoice(tb.Cap()) && reads > 2) {
				t.Fatalf("%s: get %d = %+v, %v after %d line reads", tc.name, i, s, ok, reads)
			}
		}
		if twoChoice(tb.Cap()) {
			checkLineInvariant(t, tb)
		}
	}
}

// TestPowerOfTwoLayoutUnchanged pins the placement of power-of-two tables —
// every table at designed geometry — to home = hash & (cap-1) with linear
// probing, slot for slot: the virtual-time figures depend on it.
func TestPowerOfTwoLayoutUnchanged(t *testing.T) {
	for _, capacity := range []int{8, 64, 1024} {
		a := newArena(t)
		c := simclock.New(0)
		n := capacity * 3 / 4
		want := make([]byte, capacity*SlotSize)
		for i := 0; i < n; i++ {
			s := Slot{Hash: xhash.Uint64(uint64(i)), Ref: MakeRef(int64(i)+1, false)}
			idx := s.Hash & uint64(capacity-1)
			for decodeSlot(want[idx*SlotSize:]).Ref != 0 {
				idx = (idx + 1) & uint64(capacity-1)
			}
			encodeSlot(want[idx*SlotSize:], s)
		}
		tb, _, err := BuildPmemTable(c, a, capacity, func(yield func(Slot) bool) {
			for i := 0; i < n; i++ {
				yield(Slot{Hash: xhash.Uint64(uint64(i)), Ref: MakeRef(int64(i)+1, false)})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if tb.BlockBytes() != tb.SizeBytes() {
			t.Fatalf("cap %d: block %d B, table %d B", capacity, tb.BlockBytes(), tb.SizeBytes())
		}
		if !bytes.Equal(a.Bytes(tb.Offset(), tb.SizeBytes()), want) {
			t.Fatalf("cap %d: slot layout differs from hash & (cap-1) linear probing", capacity)
		}
	}
}

// TestFittedTableRecyclesItsBlock: a fitted table gives back the whole
// power-of-two block it was carved from, so the next table of that size class
// — fitted or not — reuses it and the arena does not grow.
func TestFittedTableRecyclesItsBlock(t *testing.T) {
	a := newArena(t)
	first, err := NewPmemTable(a, 4112)
	if err != nil {
		t.Fatal(err)
	}
	inUse := a.InUse()
	for _, capacity := range []int{4128, 8192, 6000} {
		first.Release()
		next, err := NewPmemTable(a, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if next.Offset() != first.Offset() || a.InUse() != inUse {
			t.Fatalf("cap %d: block not reused (offset %d vs %d, in use %d vs %d)",
				capacity, next.Offset(), first.Offset(), a.InUse(), inUse)
		}
		first = next
	}
}

// TestFittedMemCapacity: NewFittedMem takes the whole lines asked for and
// keeps a power of two as it is, while NewMem still rounds up to one.
func TestFittedMemCapacity(t *testing.T) {
	for _, tc := range []struct{ ask, fitted, mem int }{
		{1, 8, 8}, {8, 8, 8}, {40, 48, 64}, {4096, 4096, 4096}, {5430, 5440, 8192}, {6112, 6112, 8192},
	} {
		if got := NewFittedMem(tc.ask).Cap(); got != tc.fitted {
			t.Errorf("NewFittedMem(%d).Cap() = %d, want %d", tc.ask, got, tc.fitted)
		}
		if got := NewMem(tc.ask).Cap(); got != tc.mem {
			t.Errorf("NewMem(%d).Cap() = %d, want %d", tc.ask, got, tc.mem)
		}
	}
}

// checkBucketInvariant reads a two-choice Mem's slots and checks that every
// entry sits in its first bucket, or in its second while the first is full.
func checkBucketInvariant(t *testing.T, m *Mem) {
	t.Helper()
	for i := range m.slots {
		s := m.slot(uint64(i))
		if s.Ref == 0 {
			continue
		}
		b1, b2, _ := m.g.homes(s.Hash)
		switch at := uint64(i / memBucketSlots); {
		case at == b1:
		case at == b2 && m.full(b1):
		default:
			t.Fatalf("hash %#x sits in bucket %d; its buckets are %d (full: %v) and %d", s.Hash, at, b1, m.full(b1), b2)
		}
	}
}

// TestFittedMemMatchesMapOracle drives two-choice Mems with random
// Insert/InsertIfAbsent — new hashes, versions of present ones, tombstones —
// against a map, up to the first insert that finds no room. Until then every
// insert succeeds; the one that fails is of an absent hash whose two buckets
// were full, leaves every slot, Len and the seqlock as they were, and comes
// above nine tenths full, so displacement made room before it. After it,
// every present hash reads back its newest reference (the first, for
// InsertIfAbsent) and absent hashes miss, each probe reading at most two
// buckets; Len and Iterate agree with the map, and every entry keeps the
// bucket invariant.
func TestFittedMemMatchesMapOracle(t *testing.T) {
	for _, capacity := range []int{48, 80, 1040, 5440} {
		for seed := range 20 {
			r := rand.New(rand.NewSource(int64(seed)))
			m := NewFittedMem(capacity)
			if m.Cap() != capacity || !m.TwoChoice() {
				t.Fatalf("NewFittedMem(%d): %d slots, two-choice %v", capacity, m.Cap(), m.TwoChoice())
			}
			oracle := map[uint64]uint64{}
			universe := capacity + capacity/2
			failed := false
			for i := 0; !failed; i++ {
				if i > 8*capacity {
					t.Fatalf("cap %d seed %d: no insert failed in %d", capacity, seed, i)
				}
				h := xhash.Uint64(uint64(r.Intn(universe)))
				ref := MakeRef(int64(i)+1, r.Intn(10) == 0)
				want, present := oracle[h]
				insert := m.Insert
				if r.Intn(2) == 0 {
					insert = m.InsertIfAbsent
				} else {
					want = ref
				}
				b1, b2, _ := m.g.homes(h)
				crowded := !present && m.full(b1) && m.full(b2)
				var before []Slot
				if crowded {
					for j := range m.slots {
						before = append(before, m.slot(uint64(j)))
					}
				}
				n, seq, moves := m.Len(), m.seq.Load(), m.Displacements()
				_, ok := insert(h, ref)
				switch {
				case ok && present:
					oracle[h] = want
				case ok:
					oracle[h] = ref
					if crowded && m.Displacements() != moves+1 {
						t.Fatalf("cap %d seed %d: an insert into two full buckets succeeded without a displacement", capacity, seed)
					}
				case !crowded:
					t.Fatalf("cap %d seed %d: insert %d refused (present %v) with a bucket free", capacity, seed, i, present)
				default:
					failed = true
					for j, s := range before {
						if m.slot(uint64(j)) != s {
							t.Fatalf("cap %d seed %d: the refused insert changed slot %d", capacity, seed, j)
						}
					}
					if m.Len() != n || m.seq.Load() != seq {
						t.Fatalf("cap %d seed %d: the refused insert moved Len %d -> %d, seq %d -> %d", capacity, seed, n, m.Len(), seq, m.seq.Load())
					}
					if 10*n <= 9*capacity {
						t.Fatalf("cap %d seed %d: the first insert refused at %d entries, not above nine tenths", capacity, seed, n)
					}
				}
			}
			for h, want := range oracle {
				if got, probes, ok := m.Get(h); !ok || got != want || probes > 2*memBucketSlots {
					t.Fatalf("cap %d seed %d: get %#x = %#x, %v after %d probes; want %#x within two buckets", capacity, seed, h, got, ok, probes, want)
				}
			}
			for i := universe; i < 2*universe; i++ {
				if _, probes, ok := m.Get(xhash.Uint64(uint64(i))); ok || probes > 2*memBucketSlots {
					t.Fatalf("cap %d seed %d: absent hash %d found=%v after %d probes", capacity, seed, i, ok, probes)
				}
			}
			yielded, got := 0, 0
			m.Iterate(func(s Slot) bool {
				yielded++
				if oracle[s.Hash] == s.Ref {
					got++
				}
				return true
			})
			if m.Len() != len(oracle) || yielded != len(oracle) || got != len(oracle) {
				t.Fatalf("cap %d seed %d: Len %d, Iterate yielded %d slots, %d of them the oracle's %d entries", capacity, seed, m.Len(), yielded, got, len(oracle))
			}
			if m.Displacements() == 0 {
				t.Fatalf("cap %d seed %d: no insert displaced an entry", capacity, seed)
			}
			checkBucketInvariant(t, m)
		}
	}
}

// TestFittedMemProbeWraps places entries of hashes whose buckets are 5 and 6
// of a twelve-bucket Mem, probing from the last slot of either. The first
// three land in bucket 5's slots 3, 0 and 1 — the probe wraps inside the
// bucket, not into the next — and a miss stops at the bucket's first empty
// slot. Once bucket 5 is full, entries go to bucket 6 and a probe for them
// reads both buckets, charged as two cache lines. With both full, an entry
// of bucket 5 whose second bucket has room moves there to make room, and the
// probe for it reads two buckets; when no entry can move, the insert is
// refused and the table is left as it was, and a miss reads exactly the two
// buckets' eight slots.
func TestFittedMemProbeWraps(t *testing.T) {
	const capacity, buckets = 48, 12
	m := NewFittedMem(capacity)
	hs := make([]uint64, 9)
	for i := range hs {
		hs[i] = hashWithBuckets(buckets, memBucketSlots, 5, memBucketSlots-1, uint64(i)+1, uint64(i))
	}
	// mover's first bucket is 5 and its second 7: bits 32..49 pick an
	// offset of 2 out of 11.
	mover := hashWithBuckets(buckets, memBucketSlots, 5, memBucketSlots-1, 99, 7) | 23832<<32
	for _, h := range append(hs, mover) {
		want := uint64(6)
		if h == mover {
			want = 7
		}
		if b1, b2, sub := m.g.homes(h); b1 != 5 || b2 != want || sub != memBucketSlots-1 {
			t.Fatalf("hash %#x: buckets %d, %d from slot %d", h, b1, b2, sub)
		}
	}
	ref := func(i int) uint64 { return MakeRef(int64(i)+1, false) }
	insert := func(i int, h uint64) {
		t.Helper()
		if _, ok := m.Insert(h, ref(i)); !ok {
			t.Fatalf("insert %d refused", i)
		}
	}
	get := func(i int, h uint64, wantProbes int) { // wantProbes < 0: any
		t.Helper()
		if got, probes, ok := m.Get(h); !ok || got != ref(i) || (wantProbes > 0 && probes != wantProbes) {
			t.Fatalf("get %d = %#x, %v after %d probes; want %#x after %d", i, got, ok, probes, ref(i), wantProbes)
		}
	}
	miss := func(wantProbes int) {
		t.Helper()
		if _, probes, ok := m.Get(hs[8]); ok || probes != wantProbes {
			t.Fatalf("miss: found %v after %d probes, want a miss after %d", ok, probes, wantProbes)
		}
	}
	for i := range 3 {
		insert(i, hs[i])
	}
	for i, slot := range []int{23, 20, 21} {
		if got := m.slots[slot].hash.Load(); got != hs[i] {
			t.Fatalf("slot %d holds hash %#x, want entry %d (%#x)", slot, got, i, hs[i])
		}
		get(i, hs[i], i+1)
	}
	miss(4)
	insert(9, mover) // slot 22: bucket 5 is full
	insert(3, hs[3]) // bucket 6, slot 27
	get(3, hs[3], 5)
	if got, want := device.DRAMProbeCost(5), 2*int64(device.CostDRAMRandAccess)+10; got != want {
		t.Fatalf("a probe of two buckets costs %d ns, want two cache lines' %d", got, want)
	}
	miss(6)
	for i := 4; i < 7; i++ {
		insert(i, hs[i])
	}
	miss(8)
	insert(7, hs[7]) // both full: mover goes to bucket 7, hs[7] takes its slot
	if m.Displacements() != 1 || m.slots[22].hash.Load() != hs[7] || m.slots[31].hash.Load() != mover {
		t.Fatalf("after a displacement: %d displacements, slot 22 holds %#x, slot 31 %#x; want 1, %#x, %#x",
			m.Displacements(), m.slots[22].hash.Load(), m.slots[31].hash.Load(), hs[7], mover)
	}
	get(7, hs[7], 4)
	get(9, mover, 5)
	snapshot := func() (out []Slot) {
		for i := range m.slots {
			out = append(out, m.slot(uint64(i)))
		}
		return out
	}
	before := snapshot()
	if _, ok := m.Insert(hs[8], ref(8)); ok {
		t.Fatal("an insert with no chain of moves was accepted")
	}
	if !slices.Equal(before, snapshot()) || m.Len() != 9 {
		t.Fatal("a refused insert changed the table")
	}
	miss(8)
	for i := range 8 {
		get(i, hs[i], -1)
	}
	checkBucketInvariant(t, m)
}

// TestMemPowerOfTwoLayoutUnchanged pins power-of-two Mems — MemTables,
// staging tables, pins, and ABIs at a power of two — to home = hash & (cap-1)
// with linear probing, slot for slot, whichever constructor made them: the
// virtual-time figures depend on it.
func TestMemPowerOfTwoLayoutUnchanged(t *testing.T) {
	for _, capacity := range []int{8, 64, 1024} {
		n := capacity * 3 / 4
		want := make([]Slot, capacity)
		for i := 0; i < n; i++ {
			s := Slot{Hash: xhash.Uint64(uint64(i)), Ref: MakeRef(int64(i)+1, false)}
			idx := s.Hash & uint64(capacity-1)
			for want[idx].Ref != 0 {
				idx = (idx + 1) & uint64(capacity-1)
			}
			want[idx] = s
		}
		for name, m := range map[string]*Mem{"NewMem": NewMem(capacity), "NewFittedMem": NewFittedMem(capacity)} {
			for i := 0; i < n; i++ {
				m.Insert(xhash.Uint64(uint64(i)), MakeRef(int64(i)+1, false))
			}
			for idx := range want {
				if got := (Slot{Hash: m.slots[idx].hash.Load(), Ref: m.slots[idx].ref.Load()}); got != want[idx] {
					t.Fatalf("%s cap %d: slot %d holds %+v, want %+v", name, capacity, idx, got, want[idx])
				}
			}
		}
	}
}
