// Package delta implements the baseline column layouts Casper is evaluated
// against (§7 of the paper):
//
//   - HeapColumn: insertion-order column with no organization ("No Order"),
//   - SortedColumn: fully sorted column ("Sorted"),
//   - DeltaColumn: sorted read store plus a global delta buffer with
//     tombstones and periodic merge — the state-of-the-art update-aware
//     columnar design ("State-of-art").
//
// All three expose the same operation repertoire as internal/column and
// report payload row movements through a Mover so a table's payload columns
// stay aligned.
package delta

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"casper/internal/column"
)

// Mover extends column.RowMover with wholesale reorganization, which the
// delta merge needs.
type Mover interface {
	column.RowMover
	// Reorder rebuilds the payload store: new row i comes from old row
	// newFromOld[i]. Rows beyond len(newFromOld) become dead.
	Reorder(newFromOld []int)
}

// NopMover ignores all movement.
type NopMover struct{ column.NopMover }

// Reorder implements Mover.
func (NopMover) Reorder([]int) {}

// ErrNotFound mirrors column.ErrNotFound.
var ErrNotFound = column.ErrNotFound

// Stats counts physical work in the baselines. Counters are maintained
// with atomic adds so concurrent readers can update them safely.
type Stats struct {
	PointQueries  int64
	RangeQueries  int64
	Inserts       int64
	Deletes       int64
	Updates       int64
	ValuesScanned int64
	ValuesMoved   int64
	Merges        int64
}

// unpartitioned is embedded by the three baselines: none has internal key
// fences, so a scan resuming at any key captures the whole column.
type unpartitioned struct{}

// Fence mirrors column.Column.Fence for layouts without partitions.
func (unpartitioned) Fence(int64) int64 { return math.MaxInt64 }

// ---------------------------------------------------------------------------
// HeapColumn
// ---------------------------------------------------------------------------

// HeapColumn stores values in insertion order: O(1) inserts, full-scan reads.
type HeapColumn struct {
	unpartitioned
	vals  []int64
	mover column.RowMover
	stats Stats
}

// NewHeap builds a heap column holding keys in the given order.
func NewHeap(keys []int64, mover column.RowMover) *HeapColumn {
	if mover == nil {
		mover = column.NopMover{}
	}
	vals := make([]int64, len(keys))
	copy(vals, keys)
	mover.Grow(len(vals))
	return &HeapColumn{vals: vals, mover: mover}
}

// Len returns the live value count.
func (h *HeapColumn) Len() int { return len(h.vals) }

// Stats returns a copy of the counters.
func (h *HeapColumn) Stats() Stats { return loadStats(&h.stats) }

// ResetStats zeroes the counters.
func (h *HeapColumn) ResetStats() { h.stats = Stats{} }

// PointQuery counts occurrences of v with a full scan.
func (h *HeapColumn) PointQuery(v int64) int {
	atomic.AddInt64(&h.stats.PointQueries, 1)
	atomic.AddInt64(&h.stats.ValuesScanned, int64(len(h.vals)))
	n := 0
	for _, x := range h.vals {
		if x == v {
			n++
		}
	}
	return n
}

// RangeCount counts live values in [lo, hi] with a full scan.
func (h *HeapColumn) RangeCount(lo, hi int64) int {
	atomic.AddInt64(&h.stats.RangeQueries, 1)
	atomic.AddInt64(&h.stats.ValuesScanned, int64(len(h.vals)))
	n := 0
	for _, x := range h.vals {
		if x >= lo && x <= hi {
			n++
		}
	}
	return n
}

// RangeSum sums live values in [lo, hi] with a full scan.
func (h *HeapColumn) RangeSum(lo, hi int64) int64 {
	atomic.AddInt64(&h.stats.RangeQueries, 1)
	atomic.AddInt64(&h.stats.ValuesScanned, int64(len(h.vals)))
	var s int64
	for _, x := range h.vals {
		if x >= lo && x <= hi {
			s += x
		}
	}
	return s
}

// Insert appends v and returns its physical position.
func (h *HeapColumn) Insert(v int64) int {
	atomic.AddInt64(&h.stats.Inserts, 1)
	h.vals = append(h.vals, v)
	h.mover.Grow(len(h.vals))
	return len(h.vals) - 1
}

// Delete removes one occurrence of v by swapping the last row into its slot.
func (h *HeapColumn) Delete(v int64) error {
	atomic.AddInt64(&h.stats.Deletes, 1)
	atomic.AddInt64(&h.stats.ValuesScanned, int64(len(h.vals)))
	for i, x := range h.vals {
		if x == v {
			last := len(h.vals) - 1
			h.vals[i] = h.vals[last]
			h.mover.Move(i, last)
			h.vals = h.vals[:last]
			atomic.AddInt64(&h.stats.ValuesMoved, 1)
			return nil
		}
	}
	return fmt.Errorf("%w: %d", ErrNotFound, v)
}

// Update rewrites one occurrence of old to new in place.
func (h *HeapColumn) Update(old, new int64) (int, error) {
	atomic.AddInt64(&h.stats.Updates, 1)
	atomic.AddInt64(&h.stats.ValuesScanned, int64(len(h.vals)))
	for i, x := range h.vals {
		if x == old {
			h.vals[i] = new
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: %d", ErrNotFound, old)
}

// Snapshot returns the live values in storage order.
func (h *HeapColumn) Snapshot() []int64 {
	out := make([]int64, len(h.vals))
	copy(out, h.vals)
	return out
}

// ---------------------------------------------------------------------------
// SortedColumn
// ---------------------------------------------------------------------------

// SortedColumn keeps values fully sorted: binary-search reads, memmove
// writes. This is the "Sorted" baseline whose update cost motivates delta
// stores.
type SortedColumn struct {
	unpartitioned
	vals  []int64
	mover column.RowMover
	stats Stats
}

// NewSorted builds a sorted column from keys (sorted copy taken internally).
func NewSorted(keys []int64, mover column.RowMover) *SortedColumn {
	if mover == nil {
		mover = column.NopMover{}
	}
	vals := make([]int64, len(keys))
	copy(vals, keys)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	mover.Grow(len(vals))
	return &SortedColumn{vals: vals, mover: mover}
}

// Len returns the live value count.
func (s *SortedColumn) Len() int { return len(s.vals) }

// Stats returns a copy of the counters.
func (s *SortedColumn) Stats() Stats { return loadStats(&s.stats) }

// ResetStats zeroes the counters.
func (s *SortedColumn) ResetStats() { s.stats = Stats{} }

func (s *SortedColumn) lowerBound(v int64) int {
	return sort.Search(len(s.vals), func(i int) bool { return s.vals[i] >= v })
}

// PointQuery counts occurrences of v by binary search.
func (s *SortedColumn) PointQuery(v int64) int {
	atomic.AddInt64(&s.stats.PointQueries, 1)
	i := s.lowerBound(v)
	n := 0
	for ; i+n < len(s.vals) && s.vals[i+n] == v; n++ {
	}
	atomic.AddInt64(&s.stats.ValuesScanned, int64(n+1))
	return n
}

// RangeCount counts live values in [lo, hi] with two binary searches.
func (s *SortedColumn) RangeCount(lo, hi int64) int {
	atomic.AddInt64(&s.stats.RangeQueries, 1)
	if hi < lo {
		return 0
	}
	a := s.lowerBound(lo)
	b := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > hi })
	return b - a
}

// RangeSum sums live values in [lo, hi].
func (s *SortedColumn) RangeSum(lo, hi int64) int64 {
	atomic.AddInt64(&s.stats.RangeQueries, 1)
	if hi < lo {
		return 0
	}
	a := s.lowerBound(lo)
	b := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > hi })
	var sum int64
	for _, x := range s.vals[a:b] {
		sum += x
	}
	atomic.AddInt64(&s.stats.ValuesScanned, int64(b-a))
	return sum
}

// Insert places v at its sorted position, shifting trailing rows right with
// one bulk move.
func (s *SortedColumn) Insert(v int64) int {
	atomic.AddInt64(&s.stats.Inserts, 1)
	pos := s.lowerBound(v)
	s.vals = append(s.vals, 0)
	s.mover.Grow(len(s.vals))
	if n := len(s.vals) - 1 - pos; n > 0 {
		copy(s.vals[pos+1:], s.vals[pos:len(s.vals)-1])
		s.mover.MoveRange(pos+1, pos, n)
		atomic.AddInt64(&s.stats.ValuesMoved, int64(n))
	}
	s.vals[pos] = v
	return pos
}

// Delete removes one occurrence of v, shifting trailing rows left with one
// bulk move.
func (s *SortedColumn) Delete(v int64) error {
	atomic.AddInt64(&s.stats.Deletes, 1)
	pos := s.lowerBound(v)
	if pos >= len(s.vals) || s.vals[pos] != v {
		return fmt.Errorf("%w: %d", ErrNotFound, v)
	}
	if n := len(s.vals) - 1 - pos; n > 0 {
		copy(s.vals[pos:], s.vals[pos+1:])
		s.mover.MoveRange(pos, pos+1, n)
		atomic.AddInt64(&s.stats.ValuesMoved, int64(n))
	}
	s.vals = s.vals[:len(s.vals)-1]
	return nil
}

// Update moves one occurrence of old to new's sorted position by shifting
// the rows in between — a delete and insert fused into one pass.
func (s *SortedColumn) Update(old, new int64) (int, error) {
	atomic.AddInt64(&s.stats.Updates, 1)
	pos := s.lowerBound(old)
	if pos >= len(s.vals) || s.vals[pos] != old {
		return 0, fmt.Errorf("%w: %d", ErrNotFound, old)
	}
	if new >= old {
		dst := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > new }) - 1
		if n := dst - pos; n > 0 {
			copy(s.vals[pos:], s.vals[pos+1:dst+1])
			s.mover.MoveRange(pos, pos+1, n)
			atomic.AddInt64(&s.stats.ValuesMoved, int64(n))
		}
		s.vals[dst] = new
		return dst, nil
	}
	dst := s.lowerBound(new)
	if n := pos - dst; n > 0 {
		copy(s.vals[dst+1:], s.vals[dst:pos])
		s.mover.MoveRange(dst+1, dst, n)
		atomic.AddInt64(&s.stats.ValuesMoved, int64(n))
	}
	s.vals[dst] = new
	return dst, nil
}

// Snapshot returns the live values sorted.
func (s *SortedColumn) Snapshot() []int64 {
	out := make([]int64, len(s.vals))
	copy(out, s.vals)
	return out
}

// ---------------------------------------------------------------------------
// DeltaColumn
// ---------------------------------------------------------------------------

// DeltaColumn is the state-of-the-art baseline: a sorted read store with a
// global out-of-place delta buffer. Inserts append to the delta; deletes
// tombstone the main store; reads consult both sides. When the delta exceeds
// its threshold it merges into a fresh sorted main store.
//
// Physical row positions: main row i lives at position i; delta row i lives
// at position mainRegion+i, where mainRegion is fixed between merges. Merges
// issue a Reorder to the Mover.
type DeltaColumn struct {
	unpartitioned
	main       []int64
	dead       []bool // tombstones aligned with main
	deadCount  int
	delta      []int64
	mainRegion int // size of the main position region (== len(main))
	threshold  int // merge when len(delta) reaches this
	mover      Mover
	stats      Stats
}

// DefaultMergeThreshold is the delta capacity as a fraction of the main
// store when no explicit threshold is given. Write-optimized buffers in
// columnar systems are small fractions of the read store; the merge cost
// this implies is the recurring reorganization cost the paper attributes to
// delta designs (§7.2).
const DefaultMergeThreshold = 0.005

// NewDelta builds a delta column from keys. threshold is the delta size that
// triggers a merge; 0 selects DefaultMergeThreshold of the data size.
func NewDelta(keys []int64, threshold int, mover Mover) *DeltaColumn {
	if mover == nil {
		mover = NopMover{}
	}
	main := make([]int64, len(keys))
	copy(main, keys)
	sort.Slice(main, func(i, j int) bool { return main[i] < main[j] })
	if threshold <= 0 {
		threshold = int(float64(len(main)) * DefaultMergeThreshold)
		if threshold < 16 {
			threshold = 16
		}
	}
	mover.Grow(len(main))
	return &DeltaColumn{
		main:       main,
		dead:       make([]bool, len(main)),
		delta:      make([]int64, 0, threshold),
		mainRegion: len(main),
		threshold:  threshold,
		mover:      mover,
	}
}

// Len returns the live value count.
func (d *DeltaColumn) Len() int { return len(d.main) - d.deadCount + len(d.delta) }

// DeltaLen returns the current delta buffer size.
func (d *DeltaColumn) DeltaLen() int { return len(d.delta) }

// Stats returns a copy of the counters.
func (d *DeltaColumn) Stats() Stats { return loadStats(&d.stats) }

// ResetStats zeroes the counters.
func (d *DeltaColumn) ResetStats() { d.stats = Stats{} }

func (d *DeltaColumn) lowerBound(v int64) int {
	return sort.Search(len(d.main), func(i int) bool { return d.main[i] >= v })
}

// PointQuery counts live occurrences of v across main and delta.
func (d *DeltaColumn) PointQuery(v int64) int {
	atomic.AddInt64(&d.stats.PointQueries, 1)
	n := 0
	for i := d.lowerBound(v); i < len(d.main) && d.main[i] == v; i++ {
		if !d.dead[i] {
			n++
		}
	}
	for _, x := range d.delta {
		if x == v {
			n++
		}
	}
	atomic.AddInt64(&d.stats.ValuesScanned, int64(len(d.delta)+1))
	return n
}

// RangeCount counts live values in [lo, hi] across main and delta.
func (d *DeltaColumn) RangeCount(lo, hi int64) int {
	atomic.AddInt64(&d.stats.RangeQueries, 1)
	if hi < lo {
		return 0
	}
	a := d.lowerBound(lo)
	b := sort.Search(len(d.main), func(i int) bool { return d.main[i] > hi })
	n := 0
	for i := a; i < b; i++ {
		if !d.dead[i] {
			n++
		}
	}
	for _, x := range d.delta {
		if x >= lo && x <= hi {
			n++
		}
	}
	atomic.AddInt64(&d.stats.ValuesScanned, int64(b-a+len(d.delta)))
	return n
}

// RangeSum sums live values in [lo, hi] across main and delta.
func (d *DeltaColumn) RangeSum(lo, hi int64) int64 {
	atomic.AddInt64(&d.stats.RangeQueries, 1)
	if hi < lo {
		return 0
	}
	a := d.lowerBound(lo)
	b := sort.Search(len(d.main), func(i int) bool { return d.main[i] > hi })
	var sum int64
	for i := a; i < b; i++ {
		if !d.dead[i] {
			sum += d.main[i]
		}
	}
	for _, x := range d.delta {
		if x >= lo && x <= hi {
			sum += x
		}
	}
	atomic.AddInt64(&d.stats.ValuesScanned, int64(b-a+len(d.delta)))
	return sum
}

// Insert appends v to the delta buffer, merging first if it is full.
// Returns the physical position of the new row.
func (d *DeltaColumn) Insert(v int64) int {
	atomic.AddInt64(&d.stats.Inserts, 1)
	if len(d.delta) >= d.threshold {
		d.merge()
	}
	d.delta = append(d.delta, v)
	pos := d.mainRegion + len(d.delta) - 1
	d.mover.Grow(d.mainRegion + len(d.delta))
	return pos
}

// Delete removes one live occurrence of v: out of the delta if present
// there, otherwise by tombstoning the main store.
func (d *DeltaColumn) Delete(v int64) error {
	atomic.AddInt64(&d.stats.Deletes, 1)
	for i, x := range d.delta {
		if x == v {
			last := len(d.delta) - 1
			d.delta[i] = d.delta[last]
			d.mover.Move(d.mainRegion+i, d.mainRegion+last)
			d.delta = d.delta[:last]
			return nil
		}
	}
	atomic.AddInt64(&d.stats.ValuesScanned, int64(len(d.delta)))
	for i := d.lowerBound(v); i < len(d.main) && d.main[i] == v; i++ {
		if !d.dead[i] {
			d.dead[i] = true
			d.deadCount++
			return nil
		}
	}
	return fmt.Errorf("%w: %d", ErrNotFound, v)
}

// Update deletes old and inserts new (out-of-place update handling).
// Returns the new row's physical position.
func (d *DeltaColumn) Update(old, new int64) (int, error) {
	atomic.AddInt64(&d.stats.Updates, 1)
	if err := d.Delete(old); err != nil {
		return 0, fmt.Errorf("update: %w", err)
	}
	d.stats.Deletes-- // counted as an update, not a standalone delete
	d.stats.Inserts--
	return d.Insert(new), nil
}

// merge folds the delta and tombstones into a fresh sorted main store.
func (d *DeltaColumn) merge() {
	atomic.AddInt64(&d.stats.Merges, 1)
	type row struct {
		key int64
		old int // old physical position
	}
	rows := make([]row, 0, len(d.main)-d.deadCount+len(d.delta))
	for i, v := range d.main {
		if !d.dead[i] {
			rows = append(rows, row{v, i})
		}
	}
	for i, v := range d.delta {
		rows = append(rows, row{v, d.mainRegion + i})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	newMain := make([]int64, len(rows))
	perm := make([]int, len(rows))
	for i, r := range rows {
		newMain[i] = r.key
		perm[i] = r.old
	}
	atomic.AddInt64(&d.stats.ValuesMoved, int64(len(rows)))
	d.main = newMain
	d.dead = make([]bool, len(newMain))
	d.deadCount = 0
	d.delta = d.delta[:0]
	d.mainRegion = len(newMain)
	d.mover.Reorder(perm)
}

// Merge forces the pending delta to fold into the main store.
func (d *DeltaColumn) Merge() { d.merge() }

// Snapshot returns all live values in an unspecified order.
func (d *DeltaColumn) Snapshot() []int64 {
	out := make([]int64, 0, d.Len())
	for i, v := range d.main {
		if !d.dead[i] {
			out = append(out, v)
		}
	}
	out = append(out, d.delta...)
	return out
}

// ---------------------------------------------------------------------------
// Position APIs shared with internal/column (used by the table layer)
// ---------------------------------------------------------------------------

// Locate returns the physical position of one occurrence of v in the heap.
func (h *HeapColumn) Locate(v int64) (int, bool) {
	for i, x := range h.vals {
		if x == v {
			return i, true
		}
	}
	return 0, false
}

// RangePositions appends the positions of values in [lo, hi] to buf.
func (h *HeapColumn) RangePositions(lo, hi int64, buf []int) []int {
	atomic.AddInt64(&h.stats.RangeQueries, 1)
	atomic.AddInt64(&h.stats.ValuesScanned, int64(len(h.vals)))
	for i, x := range h.vals {
		if x >= lo && x <= hi {
			buf = append(buf, i)
		}
	}
	return buf
}

// Value returns the key at physical position pos.
func (h *HeapColumn) Value(pos int) int64 { return h.vals[pos] }

// Locate returns the physical position of one occurrence of v.
func (s *SortedColumn) Locate(v int64) (int, bool) {
	pos := s.lowerBound(v)
	if pos < len(s.vals) && s.vals[pos] == v {
		return pos, true
	}
	return 0, false
}

// RangePositions appends the positions of values in [lo, hi] to buf.
func (s *SortedColumn) RangePositions(lo, hi int64, buf []int) []int {
	atomic.AddInt64(&s.stats.RangeQueries, 1)
	if hi < lo {
		return buf
	}
	a := s.lowerBound(lo)
	b := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > hi })
	for i := a; i < b; i++ {
		buf = append(buf, i)
	}
	atomic.AddInt64(&s.stats.ValuesScanned, int64(b-a))
	return buf
}

// Value returns the key at physical position pos.
func (s *SortedColumn) Value(pos int) int64 { return s.vals[pos] }

// Locate returns the physical position of one live occurrence of v,
// checking the delta buffer first and then the main store.
func (d *DeltaColumn) Locate(v int64) (int, bool) {
	for i, x := range d.delta {
		if x == v {
			return d.mainRegion + i, true
		}
	}
	for i := d.lowerBound(v); i < len(d.main) && d.main[i] == v; i++ {
		if !d.dead[i] {
			return i, true
		}
	}
	return 0, false
}

// RangePositions appends the positions of live values in [lo, hi] to buf.
func (d *DeltaColumn) RangePositions(lo, hi int64, buf []int) []int {
	atomic.AddInt64(&d.stats.RangeQueries, 1)
	if hi < lo {
		return buf
	}
	a := d.lowerBound(lo)
	b := sort.Search(len(d.main), func(i int) bool { return d.main[i] > hi })
	for i := a; i < b; i++ {
		if !d.dead[i] {
			buf = append(buf, i)
		}
	}
	for i, x := range d.delta {
		if x >= lo && x <= hi {
			buf = append(buf, d.mainRegion+i)
		}
	}
	atomic.AddInt64(&d.stats.ValuesScanned, int64(b-a+len(d.delta)))
	return buf
}

// Value returns the key at physical position pos (main or delta region).
func (d *DeltaColumn) Value(pos int) int64 {
	if pos >= d.mainRegion {
		return d.delta[pos-d.mainRegion]
	}
	return d.main[pos]
}

// loadStats snapshots the counters with atomic loads.
func loadStats(s *Stats) Stats {
	return Stats{
		PointQueries:  atomic.LoadInt64(&s.PointQueries),
		RangeQueries:  atomic.LoadInt64(&s.RangeQueries),
		Inserts:       atomic.LoadInt64(&s.Inserts),
		Deletes:       atomic.LoadInt64(&s.Deletes),
		Updates:       atomic.LoadInt64(&s.Updates),
		ValuesScanned: atomic.LoadInt64(&s.ValuesScanned),
		ValuesMoved:   atomic.LoadInt64(&s.ValuesMoved),
		Merges:        atomic.LoadInt64(&s.Merges),
	}
}
