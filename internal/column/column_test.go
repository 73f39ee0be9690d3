package column

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"casper/internal/costmodel"
)

func sortedKeys(n int, rng *rand.Rand) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(10 * n))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func build(t *testing.T, keys []int64, cfg Config) *Column {
	t.Helper()
	c, err := NewFromSorted(keys, cfg)
	if err != nil {
		t.Fatalf("NewFromSorted: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid after build: %v", err)
	}
	return c
}

func TestBuildBasic(t *testing.T) {
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	c := build(t, keys, Config{
		Layout:      costmodel.Layout{Sizes: []int{1, 1, 2}},
		BlockValues: 2,
	})
	if c.Partitions() != 3 {
		t.Fatalf("partitions = %d, want 3", c.Partitions())
	}
	if c.Len() != 8 {
		t.Fatalf("len = %d, want 8", c.Len())
	}
	want := []int{2, 2, 4}
	for j, s := range c.PartitionSizes() {
		if s != want[j] {
			t.Errorf("partition %d size %d, want %d", j, s, want[j])
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := NewFromSorted(nil, Config{}); err == nil {
		t.Error("empty keys accepted")
	}
	if _, err := NewFromSorted([]int64{3, 1}, Config{}); err == nil {
		t.Error("unsorted keys accepted")
	}
	if _, err := NewFromSorted([]int64{1}, Config{Layout: costmodel.Layout{Sizes: []int{0}}}); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestDuplicatesStayTogether(t *testing.T) {
	// A boundary falling inside the run of 5s must shift so all 5s share
	// a partition (§4.1).
	keys := []int64{1, 2, 5, 5, 5, 5, 6, 7}
	c := build(t, keys, Config{
		Layout:      costmodel.Layout{Sizes: []int{2, 2}},
		BlockValues: 2,
	})
	if got := c.PointQuery(5); got != 4 {
		t.Fatalf("PointQuery(5) = %d, want 4", got)
	}
}

func TestPointQuery(t *testing.T) {
	keys := []int64{10, 20, 20, 30, 40, 50, 60, 70}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{2, 2}}, BlockValues: 2})
	tests := []struct {
		v    int64
		want int
	}{
		{10, 1}, {20, 2}, {25, 0}, {70, 1}, {-5, 0}, {999, 0},
	}
	for _, tc := range tests {
		if got := c.PointQuery(tc.v); got != tc.want {
			t.Errorf("PointQuery(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestRangeQueries(t *testing.T) {
	keys := make([]int64, 100)
	for i := range keys {
		keys[i] = int64(i)
	}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{2, 3, 1, 4}}, BlockValues: 10})
	tests := []struct {
		lo, hi    int64
		wantCount int
		wantSum   int64
	}{
		{0, 99, 100, 4950},
		{10, 19, 10, 145},
		{25, 74, 50, 2475},
		{99, 99, 1, 99},
		{-10, -1, 0, 0},
		{200, 300, 0, 0},
		{50, 40, 0, 0}, // reversed
	}
	for _, tc := range tests {
		if got := c.RangeCount(tc.lo, tc.hi); got != tc.wantCount {
			t.Errorf("RangeCount(%d,%d) = %d, want %d", tc.lo, tc.hi, got, tc.wantCount)
		}
		if got := c.RangeSum(tc.lo, tc.hi); got != tc.wantSum {
			t.Errorf("RangeSum(%d,%d) = %d, want %d", tc.lo, tc.hi, got, tc.wantSum)
		}
	}
	if got := c.FullScanSum(); got != 4950 {
		t.Errorf("FullScanSum = %d, want 4950", got)
	}
}

func TestRangePositions(t *testing.T) {
	keys := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{1, 1}}, BlockValues: 4})
	pos := c.RangePositions(3, 6, nil)
	if len(pos) != 4 {
		t.Fatalf("got %d positions, want 4", len(pos))
	}
	for _, p := range pos {
		v := c.Value(p)
		if v < 3 || v > 6 {
			t.Errorf("position %d holds %d, outside [3,6]", p, v)
		}
	}
}

func TestInsertWithGhostSlotIsLocal(t *testing.T) {
	keys := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	c := build(t, keys, Config{
		Layout:      costmodel.Layout{Sizes: []int{1, 1}},
		BlockValues: 4,
		Ghosts:      []int{2, 2},
	})
	before := c.Stats().RippleSteps
	c.Insert(25)
	s := c.Stats()
	if s.RippleSteps != before {
		t.Errorf("ghost insert rippled %d steps, want 0", s.RippleSteps-before)
	}
	if s.GhostHits != 1 {
		t.Errorf("GhostHits = %d, want 1", s.GhostHits)
	}
	if got := c.PointQuery(25); got != 1 {
		t.Errorf("PointQuery(25) = %d after insert", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRipplesWhenPartitionFull(t *testing.T) {
	keys := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	// Only the last partition has spare capacity.
	c := build(t, keys, Config{
		Layout:      costmodel.Layout{Sizes: []int{1, 1, 1, 1}},
		BlockValues: 2,
		Ghosts:      []int{0, 0, 0, 3},
	})
	c.Insert(15) // partition 0: ripple across 3 boundaries
	if got := c.Stats().RippleSteps; got != 3 {
		t.Errorf("RippleSteps = %d, want 3", got)
	}
	if got := c.PointQuery(15); got != 1 {
		t.Errorf("PointQuery(15) = %d", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// All previous values still present.
	for _, v := range keys {
		if got := c.PointQuery(v); got != 1 {
			t.Errorf("lost value %d after ripple insert", v)
		}
	}
}

func TestInsertGrowsWhenFull(t *testing.T) {
	keys := []int64{1, 2, 3, 4}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{1, 1}}, BlockValues: 2, Mode: Dense})
	for v := int64(10); v < 90; v++ {
		c.Insert(v)
	}
	if c.Stats().Growths == 0 {
		t.Error("expected column growth")
	}
	if c.Len() != 84 {
		t.Errorf("len = %d, want 84", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteGhostModeLeavesSlot(t *testing.T) {
	keys := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{1, 1}}, BlockValues: 4, Mode: Ghost})
	if err := c.Delete(20); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().RippleSteps; got != 0 {
		t.Errorf("ghost delete rippled %d steps, want 0", got)
	}
	if got := c.GhostSlots()[0]; got != 1 {
		t.Errorf("partition 0 ghosts = %d, want 1", got)
	}
	if got := c.PointQuery(20); got != 0 {
		t.Errorf("deleted value still found %d times", got)
	}
	// The slot is reused by the next insert into that partition.
	c.Insert(25)
	if got := c.Stats().GhostHits; got != 1 {
		t.Errorf("GhostHits = %d, want 1", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteDenseModeRipplesToEnd(t *testing.T) {
	keys := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{1, 1, 1, 1}}, BlockValues: 2, Mode: Dense})
	if err := c.Delete(10); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().RippleSteps; got != 3 {
		t.Errorf("RippleSteps = %d, want 3", got)
	}
	// Hole must end up in the last partition.
	gs := c.GhostSlots()
	for j := 0; j < len(gs)-1; j++ {
		if gs[j] != 0 {
			t.Errorf("partition %d kept a hole in dense mode", j)
		}
	}
	if gs[len(gs)-1] != 1 {
		t.Errorf("last partition ghosts = %d, want 1", gs[len(gs)-1])
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMissing(t *testing.T) {
	keys := []int64{1, 2, 3, 4}
	c := build(t, keys, Config{})
	if err := c.Delete(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(99) = %v, want ErrNotFound", err)
	}
	if c.Stats().FailedDeletes != 1 {
		t.Error("FailedDeletes not counted")
	}
}

func TestUpdateSamePartitionInPlace(t *testing.T) {
	keys := []int64{10, 20, 30, 40}
	c := build(t, keys, Config{})
	before := c.Stats().RippleSteps
	if _, err := c.Update(20, 25); err != nil {
		t.Fatal(err)
	}
	if c.Stats().RippleSteps != before {
		t.Error("same-partition update should not ripple")
	}
	if c.PointQuery(20) != 0 || c.PointQuery(25) != 1 {
		t.Error("update not applied")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateForwardAndBackward(t *testing.T) {
	keys := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{1, 1, 1, 1}}, BlockValues: 2})
	// Forward: partition 0 → partition 3.
	if _, err := c.Update(10, 75); err != nil {
		t.Fatal(err)
	}
	if c.PointQuery(10) != 0 || c.PointQuery(75) != 1 {
		t.Error("forward update lost a value")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Backward: partition 3 → partition 0.
	if _, err := c.Update(80, 15); err != nil {
		t.Fatal(err)
	}
	if c.PointQuery(80) != 0 || c.PointQuery(15) != 1 {
		t.Error("backward update lost a value")
	}
	if c.Len() != 8 {
		t.Errorf("len = %d, want 8", c.Len())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMissing(t *testing.T) {
	c := build(t, []int64{1, 2, 3}, Config{})
	if _, err := c.Update(9, 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update(9,5) = %v, want ErrNotFound", err)
	}
}

// arrayMover mirrors key movements into a payload array so tests can verify
// rows stay aligned.
type arrayMover struct {
	payload []int64
}

func (m *arrayMover) Move(dst, src int) { m.payload[dst] = m.payload[src] }
func (m *arrayMover) MoveRange(dst, src, n int) {
	copy(m.payload[dst:dst+n], m.payload[src:src+n])
}
func (m *arrayMover) Swap(a, b int) { m.payload[a], m.payload[b] = m.payload[b], m.payload[a] }
func (m *arrayMover) Grow(n int) {
	for len(m.payload) < n {
		m.payload = append(m.payload, 0)
	}
}

func TestPayloadFollowsKeyColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := sortedKeys(64, rng)
	mv := &arrayMover{}
	c := build(t, keys, Config{
		Layout:      costmodel.Layout{Sizes: []int{2, 2, 2, 2}},
		BlockValues: 8,
		Ghosts:      []int{1, 1, 1, 1},
		Mover:       mv,
	})
	// payload[pos] = key at pos (so alignment is checkable as equality).
	c.PhysicalPositions(func(ord, pos int) { mv.payload[pos] = c.Value(pos) })

	for i := 0; i < 500; i++ {
		switch rng.Intn(3) {
		case 0:
			v := int64(rng.Intn(640))
			pos := c.Insert(v)
			mv.payload[pos] = v
		case 1:
			v := int64(rng.Intn(640))
			_ = c.Delete(v)
		case 2:
			old, new := int64(rng.Intn(640)), int64(rng.Intn(640))
			if pos, ok := c.Locate(old); ok {
				saved := mv.payload[pos]
				if saved != old {
					t.Fatalf("pre-update misalignment at %d: payload %d, key %d", pos, saved, old)
				}
				newPos, err := c.Update(old, new)
				if err != nil {
					t.Fatal(err)
				}
				mv.payload[newPos] = new
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every live row must have payload == key.
	c.PhysicalPositions(func(ord, pos int) {
		if mv.payload[pos] != c.Value(pos) {
			t.Fatalf("misaligned row at %d: payload %d, key %d", pos, mv.payload[pos], c.Value(pos))
		}
	})
}

// TestRandomOperationsAgainstReference runs long random workloads in both
// modes and cross-checks every query against a sorted-slice reference.
func TestRandomOperationsAgainstReference(t *testing.T) {
	for _, mode := range []Mode{Dense, Ghost} {
		mode := mode
		name := "dense"
		if mode == Ghost {
			name = "ghost"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mode) + 11))
			keys := sortedKeys(200, rng)
			ghosts := []int{0, 0, 0, 0, 0}
			if mode == Ghost {
				ghosts = []int{2, 2, 2, 2, 2}
			}
			c := build(t, keys, Config{
				Layout:      costmodel.Layout{Sizes: []int{1, 1, 1, 1, 1}},
				BlockValues: 40,
				Ghosts:      ghosts,
				Mode:        mode,
			})
			ref := make([]int64, len(keys))
			copy(ref, keys)

			refCount := func(lo, hi int64) int {
				n := 0
				for _, v := range ref {
					if v >= lo && v <= hi {
						n++
					}
				}
				return n
			}
			refRemove := func(v int64) bool {
				for i, x := range ref {
					if x == v {
						ref[i] = ref[len(ref)-1]
						ref = ref[:len(ref)-1]
						return true
					}
				}
				return false
			}

			for i := 0; i < 3000; i++ {
				switch rng.Intn(5) {
				case 0:
					v := int64(rng.Intn(2200) - 100)
					if got, want := c.PointQuery(v), refCount(v, v); got != want {
						t.Fatalf("op %d: PointQuery(%d) = %d, want %d", i, v, got, want)
					}
				case 1:
					lo := int64(rng.Intn(2200) - 100)
					hi := lo + int64(rng.Intn(500))
					if got, want := c.RangeCount(lo, hi), refCount(lo, hi); got != want {
						t.Fatalf("op %d: RangeCount(%d,%d) = %d, want %d", i, lo, hi, got, want)
					}
				case 2:
					v := int64(rng.Intn(2000))
					c.Insert(v)
					ref = append(ref, v)
				case 3:
					v := int64(rng.Intn(2000))
					err := c.Delete(v)
					if refRemove(v) != (err == nil) {
						t.Fatalf("op %d: Delete(%d) = %v disagrees with reference", i, v, err)
					}
				case 4:
					old := int64(rng.Intn(2000))
					new := int64(rng.Intn(2000))
					_, err := c.Update(old, new)
					if refRemove(old) {
						if err != nil {
							t.Fatalf("op %d: Update(%d,%d) failed: %v", i, old, new, err)
						}
						ref = append(ref, new)
					} else if err == nil {
						t.Fatalf("op %d: Update(%d,%d) succeeded but value absent", i, old, new)
					}
				}
				if i%250 == 0 {
					if err := c.Validate(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			// Final multiset comparison.
			got := c.SortedSnapshot()
			want := make([]int64, len(ref))
			copy(want, ref)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("size %d, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("multiset diverges at %d: %d vs %d", i, got[i], want[i])
				}
			}
		})
	}
}

func TestStatsCounting(t *testing.T) {
	c := build(t, []int64{1, 2, 3, 4}, Config{})
	c.PointQuery(1)
	c.RangeCount(1, 2)
	c.Insert(5)
	_ = c.Delete(1)
	_, _ = c.Update(2, 6)
	s := c.Stats()
	if s.PointQueries != 1 || s.RangeQueries != 1 || s.Inserts != 1 || s.Deletes != 1 || s.Updates != 1 {
		t.Errorf("stats = %+v", s)
	}
	c.ResetStats()
	if c.Stats().PointQueries != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestZonemapSkipsCoveredEdgePartitions(t *testing.T) {
	keys := make([]int64, 40)
	for i := range keys {
		keys[i] = int64(i)
	}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{1, 1, 1, 1}}, BlockValues: 10})
	// [0, 39] covers every partition exactly: all four consumed blindly.
	if got := c.RangeCount(0, 39); got != 40 {
		t.Fatalf("RangeCount = %d, want 40", got)
	}
	s := c.Stats()
	if s.ZonemapSkips != 2 {
		t.Errorf("ZonemapSkips = %d, want 2 (first and last partition)", s.ZonemapSkips)
	}
	if s.ValuesScanned != 0 {
		t.Errorf("ValuesScanned = %d, want 0 (fully covered query)", s.ValuesScanned)
	}
	// A partially covering range must still filter the edges.
	c.ResetStats()
	if got := c.RangeCount(5, 34); got != 30 {
		t.Fatalf("RangeCount = %d, want 30", got)
	}
	if c.Stats().ZonemapSkips != 0 {
		t.Errorf("partial edges must not be skipped")
	}
}

func TestZonemapWidensOnInsertAndStaysConservative(t *testing.T) {
	keys := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	c := build(t, keys, Config{
		Layout:      costmodel.Layout{Sizes: []int{1, 1}},
		BlockValues: 4,
		Ghosts:      []int{2, 2},
	})
	c.Insert(5) // below partition 0's previous min
	if err := c.Validate(); err != nil {
		t.Fatal(err) // Validate checks values against zonemap bounds
	}
	if got := c.RangeCount(5, 80); got != 9 {
		t.Fatalf("RangeCount = %d, want 9", got)
	}
	// Deleting the extremes leaves bounds conservative but correct.
	if err := c.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.RangeCount(0, 100); got != 8 {
		t.Fatalf("RangeCount = %d, want 8", got)
	}
	// Refresh restores exact bounds; results unchanged.
	c.RefreshZonemaps()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.RangeCount(0, 100); got != 8 {
		t.Fatalf("RangeCount after refresh = %d, want 8", got)
	}
}

func TestZonemapCorrectUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	keys := sortedKeys(300, rng)
	c := build(t, keys, Config{
		Layout:      costmodel.Layout{Sizes: []int{1, 1, 1, 1, 1, 1}},
		BlockValues: 50,
		Ghosts:      []int{1, 1, 1, 1, 1, 1},
	})
	ref := make([]int64, len(keys))
	copy(ref, keys)
	for i := 0; i < 1500; i++ {
		switch rng.Intn(4) {
		case 0:
			v := int64(rng.Intn(3000))
			c.Insert(v)
			ref = append(ref, v)
		case 1:
			v := int64(rng.Intn(3000))
			if err := c.Delete(v); err == nil {
				for k, x := range ref {
					if x == v {
						ref[k] = ref[len(ref)-1]
						ref = ref[:len(ref)-1]
						break
					}
				}
			}
		case 2:
			if i%3 == 0 {
				c.RefreshZonemaps()
			}
		case 3:
			lo := int64(rng.Intn(3000))
			hi := lo + int64(rng.Intn(1000))
			want := 0
			for _, x := range ref {
				if x >= lo && x <= hi {
					want++
				}
			}
			if got := c.RangeCount(lo, hi); got != want {
				t.Fatalf("op %d: RangeCount(%d,%d) = %d, want %d", i, lo, hi, got, want)
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeSumFromPartitionSums checks RangeSum against a plain loop over
// the live values through a random write mix, with ranges whose edge
// partitions are covered, uncovered and empty, and checks that covered
// partitions are answered from their maintained sums: they add nothing to
// ValuesScanned, while Fence keeps [v, Fence(v)] inside v's partition.
func TestRangeSumFromPartitionSums(t *testing.T) {
	for _, mode := range []Mode{Dense, Ghost} {
		rng := rand.New(rand.NewSource(11))
		keys := sortedKeys(400, rng)
		ghosts := make([]int, 8)
		if mode == Ghost {
			for i := range ghosts {
				ghosts[i] = 3
			}
		}
		c := build(t, keys, Config{Layout: costmodel.EquiWidth(40, 8), BlockValues: 10, Ghosts: ghosts, Mode: mode})
		// Empty partition 2 so ranges start, end and pass through a
		// partition without live values.
		for _, k := range append([]int64(nil), keys[100:150]...) {
			if c.FindPartition(k) == 2 {
				_ = c.Delete(k)
			}
		}
		for step := 0; step < 600; step++ {
			switch k := int64(rng.Intn(4200)); rng.Intn(4) {
			case 0:
				c.Insert(k)
			case 1:
				_ = c.Delete(k)
			case 2:
				_, _ = c.Update(k, int64(rng.Intn(4200)))
			}
			lo := int64(rng.Intn(4200)) - 100
			hi := lo + int64(rng.Intn(3000))
			if step%3 == 0 { // snap to partition bounds: fully covered edges
				lo, hi = c.Fence(lo)+1, c.Fence(hi)
			}
			var want, covered int64
			for _, v := range c.Snapshot() {
				if v >= lo && v <= hi {
					want += v
				}
			}
			before := c.Stats().ValuesScanned
			if got := c.RangeSum(lo, hi); got != want {
				t.Fatalf("%v step %d: RangeSum(%d,%d) = %d, plain loop %d", mode, step, lo, hi, got, want)
			}
			first, last := c.FindPartition(lo), c.FindPartition(hi)
			for j := first; j <= last && hi >= lo; j++ {
				if p := &c.parts[j]; (j == first || j == last) && !p.covered(lo, hi) {
					covered += int64(p.n)
				}
			}
			if got := c.Stats().ValuesScanned - before; got != covered {
				t.Fatalf("%v step %d: RangeSum(%d,%d) visited %d values, uncovered edge partitions hold %d",
					mode, step, lo, hi, got, covered)
			}
			if f := c.Fence(lo); f < lo || c.FindPartition(f) != first ||
				(f != math.MaxInt64 && c.FindPartition(f+1) != first+1) {
				t.Fatalf("%v: Fence(%d) = %d does not close partition %d", mode, lo, f, first)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRangeSumWrapsLikeAPlainLoop pins the overflow contract: with keys near
// ±2⁶³ the maintained sums wrap, and must wrap exactly as a plain int64 loop
// does, through inserts, deletes and in-place and cross-partition updates.
func TestRangeSumWrapsLikeAPlainLoop(t *testing.T) {
	keys := []int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 2, -3, 0, 5,
		math.MaxInt64 - 2, math.MaxInt64 - 1, math.MaxInt64, math.MaxInt64}
	c := build(t, keys, Config{Layout: costmodel.Layout{Sizes: []int{2, 1, 2}}, BlockValues: 2, Ghosts: []int{1, 1, 1}})
	check := func(when string) {
		t.Helper()
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for _, r := range [][2]int64{{math.MinInt64, math.MaxInt64}, {math.MinInt64, 0}, {-3, math.MaxInt64},
			{math.MaxInt64, math.MaxInt64}, {math.MinInt64 + 1, math.MaxInt64 - 1}} {
			var want int64
			for _, v := range c.Snapshot() {
				if v >= r[0] && v <= r[1] {
					want += v
				}
			}
			if got := c.RangeSum(r[0], r[1]); got != want {
				t.Fatalf("%s: RangeSum(%d,%d) = %d, plain loop %d", when, r[0], r[1], got, want)
			}
		}
	}
	check("built")
	c.Insert(math.MaxInt64)
	c.Insert(math.MinInt64)
	check("after inserts at both extremes")
	if _, err := c.Update(math.MinInt64, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	check("after a cross-partition update MinInt64 -> MaxInt64")
	if _, err := c.Update(math.MaxInt64-1, math.MaxInt64-2); err != nil {
		t.Fatal(err)
	}
	check("after an in-place update")
	for i := 0; i < 3; i++ {
		if err := c.Delete(math.MaxInt64); err != nil {
			t.Fatal(err)
		}
	}
	check("after deletes")
}
