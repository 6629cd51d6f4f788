package hashtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"chameleondb/internal/device"
	"chameleondb/internal/pmem"
	"chameleondb/internal/simclock"
	"chameleondb/internal/xhash"
)

// hashWithHome returns a hash whose probe in a line-granular table of the
// given capacity starts at slot home; salt varies the bits the placement does
// not look at, so distinct salts give distinct hashes with one home.
func hashWithHome(capacity, home int, salt uint64) uint64 {
	low := (uint64(home)<<32 + uint64(capacity) - 1) / uint64(capacity)
	return salt<<32 | low
}

// hashWithLines returns a hash whose candidate lines in a table of the given
// number of lines are line1 and line1+1, starting at slot sub within either:
// bits 32..49 are zero, salt fills bits 50 and up, which lineHomes never
// reads, and low picks the low 32 bits within the range that keeps line1
// and sub.
func hashWithLines(lines, line1, sub int, salt, low uint64) uint64 {
	capacity := uint64(lines * slotsPerLine)
	home := uint64(line1*slotsPerLine + sub)
	first := (home<<32 + capacity - 1) / capacity
	last := ((home+1)<<32 + capacity - 1) / capacity // exclusive
	return salt<<50 | (first + low%(last-first))
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

// TestFittedMemMatchesMapOracle drives line-granular Mems with random
// Insert/InsertIfAbsent over more hashes than they hold, against a map: every
// present hash reads back its newest reference (the first, for
// InsertIfAbsent), Len and Iterate agree with the map, and once the table is
// full a new hash is refused with ok=false after probing every slot.
func TestFittedMemMatchesMapOracle(t *testing.T) {
	for _, capacity := range []int{48, 80, 1040} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			m := NewFittedMem(capacity)
			if m.Cap() != capacity {
				return false
			}
			oracle := map[uint64]uint64{}
			for i := 0; i < 2*capacity; i++ {
				h := xhash.Uint64(uint64(r.Intn(capacity + capacity/2)))
				ref := MakeRef(int64(i)+1, r.Intn(10) == 0)
				want, present := oracle[h]
				insert := m.Insert
				if r.Intn(2) == 0 {
					insert = m.InsertIfAbsent
				} else {
					want = ref
				}
				probes, ok := insert(h, ref)
				switch {
				case present:
					if !ok {
						return false
					}
					oracle[h] = want
				case len(oracle) == capacity:
					if ok || probes != capacity {
						return false
					}
				default:
					if !ok {
						return false
					}
					oracle[h] = ref
				}
			}
			for h, want := range oracle {
				if got, _, ok := m.Get(h); !ok || got != want {
					return false
				}
			}
			for i := capacity + capacity/2; i < 2*capacity; i++ {
				if _, probes, ok := m.Get(xhash.Uint64(uint64(i))); ok || probes > capacity {
					return false
				}
			}
			seen := 0
			m.Iterate(func(s Slot) bool {
				if oracle[s.Hash] == s.Ref {
					seen++
				}
				return true
			})
			return m.Len() == len(oracle) && seen == len(oracle)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("cap %d: %v", capacity, err)
		}
	}
}

// TestFittedMemProbeWraps starts three probes in the last slot of a
// line-granular Mem: the second and third land in slots 0 and 1, a miss with
// the same home wraps to the first empty slot, and a full table's probes stop
// after cap slots.
func TestFittedMemProbeWraps(t *testing.T) {
	const capacity = 48
	m := NewFittedMem(capacity)
	var hs [3]uint64
	for i := range hs {
		hs[i] = hashWithHome(capacity, capacity-1, uint64(i)+1)
		if _, ok := m.Insert(hs[i], MakeRef(int64(i)+1, false)); !ok {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i, slot := range []int{capacity - 1, 0, 1} {
		if got := m.slots[slot].hash.Load(); got != hs[i] {
			t.Fatalf("slot %d holds hash %#x, want entry %d (%#x)", slot, got, i, hs[i])
		}
	}
	for i, h := range hs {
		if ref, _, ok := m.Get(h); !ok || ref != MakeRef(int64(i)+1, false) {
			t.Fatalf("get of wrapped entry %d = %#x, %v", i, ref, ok)
		}
	}
	if _, probes, ok := m.Get(hashWithHome(capacity, capacity-1, 9)); ok || probes != 4 {
		t.Fatalf("miss at the last slot: found %v after %d probes, want a miss after 4", ok, probes)
	}
	for i := uint64(0); m.Len() < capacity; i++ {
		m.Insert(xhash.Uint64(i), MakeRef(int64(i)+1, false))
	}
	if _, probes, ok := m.Get(hashWithHome(capacity, capacity-1, 9)); ok || probes != capacity {
		t.Fatalf("miss in a full table: found %v after %d probes, want a miss after %d", ok, probes, capacity)
	}
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
