// Package column implements Casper's range-partitioned column (§2–§3 of the
// paper): a fixed-width in-memory array organized into contiguous range
// partitions with optional per-partition ghost values (empty slots).
//
// The five fundamental access patterns are supported:
//
//   - point queries scan exactly the owning partition (Fig. 3b),
//   - range queries filter the first and last partitions and blindly
//     consume the interior ones (Fig. 3c),
//   - inserts use the ripple-insert algorithm, touching one slot per
//     trailing partition (Fig. 4a) — or a single slot when the target
//     partition has a free ghost value,
//   - deletes swap the victim to the end of its partition and either leave
//     the hole as a ghost value or ripple it to the end of the column
//     (Fig. 4b),
//   - updates ripple the hole directly from the source to the target
//     partition, forward or backward (§3).
//
// Payload columns follow the key column through a RowMover callback, so a
// table's columns stay positionally aligned.
package column

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"casper/internal/costmodel"
	"casper/internal/pindex"
)

// RowMover receives every physical row movement of the key column so that
// payload columns (and any positional metadata) can mirror it.
type RowMover interface {
	// Move copies the row at src over the row at dst. The src row becomes
	// dead.
	Move(dst, src int)
	// MoveRange copies n consecutive rows from src to dst (memmove
	// semantics: the regions may overlap).
	MoveRange(dst, src, n int)
	// Swap exchanges the rows at a and b.
	Swap(a, b int)
	// Grow extends the physical row storage to at least n rows.
	Grow(n int)
}

// NopMover ignores all movements; used for key-only columns.
type NopMover struct{}

func (NopMover) Move(dst, src int)         {}
func (NopMover) MoveRange(dst, src, n int) {}
func (NopMover) Swap(a, b int)             {}
func (NopMover) Grow(n int)                {}

// Mode selects how the column maintains density (Table 1's buffering axis).
type Mode int

const (
	// Dense keeps partitions packed: deletes ripple holes to the end of
	// the column and inserts pull free slots from the end ("none"
	// buffering with in-place ripple updates).
	Dense Mode = iota
	// Ghost keeps per-partition empty slots: deletes create them locally
	// and inserts consume them, rippling only between the nearest
	// partition with spare capacity ("per-partition" buffering).
	Ghost
)

// Stats counts the physical work performed, used by the experiment harness.
type Stats struct {
	PointQueries  int64
	RangeQueries  int64
	Inserts       int64
	Deletes       int64
	Updates       int64
	RippleSteps   int64 // slot transfers across partition boundaries
	GhostHits     int64 // inserts/updates absorbed by a local ghost slot
	ValuesScanned int64
	Growths       int64
	FailedDeletes int64
	FailedUpdates int64
	ZonemapSkips  int64 // edge partitions consumed without filtering (§6.3)
}

// partition is a contiguous region of the physical array. Live values
// occupy [start, start+n); ghost slots occupy [start+n, start+cap).
type partition struct {
	start int
	n     int
	cap   int
	// Conservative zonemap bounds over the live values (§6.3: per-
	// partition min/max metadata). Writes widen them; RefreshZonemaps
	// recomputes them exactly. Meaningless when n == 0.
	min, max int64
	// sum is the exact (wrapping) sum of the live values — unlike min/max
	// it is never merely conservative: every value entering or leaving the
	// partition adjusts it (place, removeAt, in-place Update), while ripples
	// only rotate values within a partition and hand slots across
	// boundaries. RangeSum answers covered partitions from it the way
	// RangeCount answers them from n, without visiting a row.
	sum int64
}

// covered reports whether every live value of p is guaranteed inside
// [lo, hi]; such partitions are consumed blindly without evaluating the
// predicate per value (the Zonemap shortcut of §6.3).
func (p *partition) covered(lo, hi int64) bool {
	return p.n > 0 && p.min >= lo && p.max <= hi
}

// Column is a range-partitioned column of int64 keys.
type Column struct {
	vals  []int64
	parts []partition
	index *pindex.Index
	mover RowMover
	mode  Mode
	size  int
	stats Stats
}

// Config controls construction.
type Config struct {
	// Layout gives partition widths in blocks; BlockValues converts them
	// to value counts. If Layout is empty the column is one partition.
	Layout      costmodel.Layout
	BlockValues int
	// Ghosts gives the initial ghost slots per partition; its length must
	// match the partition count (or be nil for none). Implies Mode Ghost
	// when any entry is non-zero.
	Ghosts []int
	Mode   Mode
	Mover  RowMover
	// IndexFanout overrides the partition index arity (0 = default).
	IndexFanout int
}

// ErrNotFound is returned by operations targeting a value that is absent.
var ErrNotFound = errors.New("column: value not found")

// NewFromSorted builds a partitioned column from keys sorted ascending.
// Partition boundaries derive from the layout's block widths; boundaries
// falling inside a run of duplicate keys are advanced so equal values stay
// in one partition (§4.1: "duplicate values should be in the same
// partition").
func NewFromSorted(keys []int64, cfg Config) (*Column, error) {
	n := len(keys)
	if n == 0 {
		return nil, errors.New("column: empty key set")
	}
	for i := 1; i < n; i++ {
		if keys[i] < keys[i-1] {
			return nil, fmt.Errorf("column: keys not sorted at %d", i)
		}
	}
	if cfg.Mover == nil {
		cfg.Mover = NopMover{}
	}
	bv := cfg.BlockValues
	if bv <= 0 {
		bv = 1
	}
	layout := cfg.Layout
	if len(layout.Sizes) == 0 {
		layout = costmodel.Layout{Sizes: []int{(n + bv - 1) / bv}}
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}

	// Convert block widths to value cut points, respecting duplicates.
	cuts := make([]int, 0, layout.Partitions())
	pos := 0
	for j, s := range layout.Sizes {
		pos += s * bv
		if pos >= n || j == layout.Partitions()-1 {
			pos = n
		} else {
			for pos < n && keys[pos] == keys[pos-1] {
				pos++
			}
		}
		cuts = append(cuts, pos)
		if pos == n {
			break
		}
	}
	if cuts[len(cuts)-1] != n {
		cuts = append(cuts, n)
	}
	// Drop empty partitions produced by duplicate adjustment.
	dedup := cuts[:0]
	prev := 0
	for _, c := range cuts {
		if c > prev {
			dedup = append(dedup, c)
			prev = c
		}
	}
	cuts = dedup

	k := len(cuts)
	ghosts := cfg.Ghosts
	if ghosts == nil {
		ghosts = make([]int, k)
	}
	if len(ghosts) < k {
		g := make([]int, k)
		copy(g, ghosts)
		ghosts = g
	}
	mode := cfg.Mode
	for _, g := range ghosts {
		if g > 0 {
			mode = Ghost
			break
		}
	}

	totalCap := n
	for j := 0; j < k; j++ {
		totalCap += ghosts[j]
	}
	c := &Column{
		vals:  make([]int64, totalCap),
		parts: make([]partition, k),
		mover: cfg.Mover,
		mode:  mode,
		size:  n,
	}
	c.mover.Grow(totalCap)
	seps := make([]int64, 0, k-1)
	start, lo := 0, 0
	for j := 0; j < k; j++ {
		hi := cuts[j]
		p := &c.parts[j]
		p.start = start
		p.n = hi - lo
		p.cap = p.n + ghosts[j]
		copy(c.vals[p.start:p.start+p.n], keys[lo:hi])
		p.min, p.max = keys[lo], keys[hi-1]
		for _, x := range keys[lo:hi] {
			p.sum += x
		}
		// Payload rows are loaded positionally by the caller before any
		// mutation; the identity placement here needs no mover calls
		// beyond alignment of the ghost gaps, which the caller handles by
		// loading payloads at the same physical positions (PhysicalPos).
		if j > 0 {
			seps = append(seps, keys[lo])
		}
		start += p.cap
		lo = hi
	}
	c.index = pindex.New(seps, cfg.IndexFanout)
	return c, nil
}

// Partitions returns the partition count k.
func (c *Column) Partitions() int { return len(c.parts) }

// Len returns the number of live values.
func (c *Column) Len() int { return c.size }

// Cap returns the number of physical slots (live + ghost + nothing else).
func (c *Column) Cap() int { return len(c.vals) }

// Stats returns a copy of the operation counters. Counters are maintained
// with atomic adds so concurrent readers (which share a chunk read-lock)
// can update them safely.
func (c *Column) Stats() Stats {
	return Stats{
		PointQueries:  atomic.LoadInt64(&c.stats.PointQueries),
		RangeQueries:  atomic.LoadInt64(&c.stats.RangeQueries),
		Inserts:       atomic.LoadInt64(&c.stats.Inserts),
		Deletes:       atomic.LoadInt64(&c.stats.Deletes),
		Updates:       atomic.LoadInt64(&c.stats.Updates),
		RippleSteps:   atomic.LoadInt64(&c.stats.RippleSteps),
		GhostHits:     atomic.LoadInt64(&c.stats.GhostHits),
		ValuesScanned: atomic.LoadInt64(&c.stats.ValuesScanned),
		Growths:       atomic.LoadInt64(&c.stats.Growths),
		FailedDeletes: atomic.LoadInt64(&c.stats.FailedDeletes),
		FailedUpdates: atomic.LoadInt64(&c.stats.FailedUpdates),
		ZonemapSkips:  atomic.LoadInt64(&c.stats.ZonemapSkips),
	}
}

// ResetStats zeroes the counters.
func (c *Column) ResetStats() { c.stats = Stats{} }

// PartitionSizes returns the live value count of each partition.
func (c *Column) PartitionSizes() []int {
	out := make([]int, len(c.parts))
	for j := range c.parts {
		out[j] = c.parts[j].n
	}
	return out
}

// GhostSlots returns the free ghost slots of each partition.
func (c *Column) GhostSlots() []int {
	out := make([]int, len(c.parts))
	for j := range c.parts {
		out[j] = c.parts[j].cap - c.parts[j].n
	}
	return out
}

// PhysicalPositions calls fn(pos) for every live physical slot in value
// order of partitions; used by the table layer to load payload rows aligned
// with the key column at construction time.
func (c *Column) PhysicalPositions(fn func(ordinal, pos int)) {
	ord := 0
	for j := range c.parts {
		p := &c.parts[j]
		for i := p.start; i < p.start+p.n; i++ {
			fn(ord, i)
			ord++
		}
	}
}

// FindPartition returns the partition ordinal that owns value v.
func (c *Column) FindPartition(v int64) int { return c.index.Find(v) }

// Fence returns the largest key routed to the partition that owns v
// (MaxInt64 for the last partition): [v, Fence(v)] lies inside one
// partition, so a scan resuming at v can capture that partition alone.
func (c *Column) Fence(v int64) int64 {
	if j := c.index.Find(v) + 1; j < len(c.parts) {
		return c.index.LowerBound(j) - 1
	}
	return math.MaxInt64
}

// PointQuery returns the number of live occurrences of v, scanning exactly
// the owning partition with a tight loop (Fig. 3b).
func (c *Column) PointQuery(v int64) int {
	atomic.AddInt64(&c.stats.PointQueries, 1)
	p := &c.parts[c.index.Find(v)]
	count := 0
	for _, x := range c.vals[p.start : p.start+p.n] {
		if x == v {
			count++
		}
	}
	atomic.AddInt64(&c.stats.ValuesScanned, int64(p.n))
	return count
}

// Locate returns the physical position of one live occurrence of v.
func (c *Column) Locate(v int64) (int, bool) {
	p := &c.parts[c.index.Find(v)]
	for i := p.start; i < p.start+p.n; i++ {
		if c.vals[i] == v {
			return i, true
		}
	}
	return 0, false
}

// Value returns the key stored at physical position pos.
func (c *Column) Value(pos int) int64 { return c.vals[pos] }

// RangeCount returns the number of live values in [lo, hi] inclusive.
// Interior partitions are counted without scanning (their live counts are
// known); only the first and last partitions are filtered (Fig. 3c).
func (c *Column) RangeCount(lo, hi int64) int {
	atomic.AddInt64(&c.stats.RangeQueries, 1)
	if hi < lo {
		return 0
	}
	first, last := c.index.Range(lo, hi)
	count := 0
	for j := first; j <= last; j++ {
		p := &c.parts[j]
		if (j != first && j != last) || p.covered(lo, hi) {
			if j == first || j == last {
				atomic.AddInt64(&c.stats.ZonemapSkips, 1)
			}
			count += p.n
			continue
		}
		for _, x := range c.vals[p.start : p.start+p.n] {
			if x >= lo && x <= hi {
				count++
			}
		}
		atomic.AddInt64(&c.stats.ValuesScanned, int64(p.n))
	}
	return count
}

// RangeSum returns the (wrapping) sum of live values in [lo, hi]. Interior
// and zonemap-covered partitions are answered from their maintained sums
// without visiting a row; only uncovered edge partitions are filtered.
func (c *Column) RangeSum(lo, hi int64) int64 {
	atomic.AddInt64(&c.stats.RangeQueries, 1)
	if hi < lo {
		return 0
	}
	first, last := c.index.Range(lo, hi)
	var sum int64
	for j := first; j <= last; j++ {
		p := &c.parts[j]
		if (j != first && j != last) || p.covered(lo, hi) {
			if j == first || j == last {
				atomic.AddInt64(&c.stats.ZonemapSkips, 1)
			}
			sum += p.sum
			continue
		}
		for _, x := range c.vals[p.start : p.start+p.n] {
			if x >= lo && x <= hi {
				sum += x
			}
		}
		atomic.AddInt64(&c.stats.ValuesScanned, int64(p.n))
	}
	return sum
}

// RangePositions appends the physical positions of live values in [lo, hi]
// to buf and returns it; the select-operator API that returns qualifying
// positions to downstream operators (§3).
func (c *Column) RangePositions(lo, hi int64, buf []int) []int {
	atomic.AddInt64(&c.stats.RangeQueries, 1)
	if hi < lo {
		return buf
	}
	first, last := c.index.Range(lo, hi)
	for j := first; j <= last; j++ {
		p := &c.parts[j]
		if (j != first && j != last) || p.covered(lo, hi) {
			if j == first || j == last {
				atomic.AddInt64(&c.stats.ZonemapSkips, 1)
			}
			for i := p.start; i < p.start+p.n; i++ {
				buf = append(buf, i)
			}
		} else {
			for i := p.start; i < p.start+p.n; i++ {
				if x := c.vals[i]; x >= lo && x <= hi {
					buf = append(buf, i)
				}
			}
		}
		atomic.AddInt64(&c.stats.ValuesScanned, int64(p.n))
	}
	return buf
}

// FullScanSum sums every live value; the full-column scan API call.
func (c *Column) FullScanSum() int64 {
	var sum int64
	for j := range c.parts {
		p := &c.parts[j]
		for _, x := range c.vals[p.start : p.start+p.n] {
			sum += x
		}
		atomic.AddInt64(&c.stats.ValuesScanned, int64(p.n))
	}
	return sum
}

// widen grows partition j's zonemap to cover v.
func (c *Column) widen(j int, v int64) {
	p := &c.parts[j]
	if p.n == 0 || v < p.min {
		p.min = v
	}
	if p.n == 0 || v > p.max {
		p.max = v
	}
}

// place writes v into the free slot at the end of partition j — the one
// way a value enters a partition — and returns that slot.
func (c *Column) place(j int, v int64) int {
	c.widen(j, v)
	p := &c.parts[j]
	pos := p.start + p.n
	c.vals[pos] = v
	p.n++
	p.sum += v
	c.size++
	return pos
}

// Insert adds v, returning the physical slot the new row occupies. The
// caller writes the payload row at that position afterwards.
func (c *Column) Insert(v int64) int {
	atomic.AddInt64(&c.stats.Inserts, 1)
	j := c.index.Find(v)
	p := &c.parts[j]
	if p.n < p.cap {
		// Ghost (or tail) slot available locally: a single write.
		if c.mode == Ghost {
			atomic.AddInt64(&c.stats.GhostHits, 1)
		}
		return c.place(j, v)
	}
	// Ripple a free slot to the end of partition j from the nearest
	// partition with spare capacity (the end of the column in Dense mode).
	h := c.nearestSpare(j)
	if h < 0 {
		c.grow()
		h = len(c.parts) - 1
	}
	if h > j {
		c.rippleHoleBackward(h, j)
	} else if h < j {
		c.rippleHoleForward(h, j)
	}
	return c.place(j, v)
}

// Delete removes one live occurrence of v. In Ghost mode the freed slot
// stays in the partition as a ghost value; in Dense mode it ripples to the
// end of the column (Fig. 4b). Returns the physical position the victim row
// occupied at removal time (after the swap-to-end), or ErrNotFound.
func (c *Column) Delete(v int64) error {
	atomic.AddInt64(&c.stats.Deletes, 1)
	j := c.index.Find(v)
	p := &c.parts[j]
	found := -1
	for i := p.start; i < p.start+p.n; i++ {
		if c.vals[i] == v {
			found = i
			break
		}
	}
	atomic.AddInt64(&c.stats.ValuesScanned, int64(p.n))
	if found < 0 {
		atomic.AddInt64(&c.stats.FailedDeletes, 1)
		return fmt.Errorf("%w: %d", ErrNotFound, v)
	}
	c.removeAt(j, found)
	if c.mode == Dense {
		c.rippleHoleToEnd(j)
	}
	return nil
}

// removeAt swaps the live row at pos to the end of partition j and shrinks
// the partition, leaving a free slot at its end.
func (c *Column) removeAt(j, pos int) {
	p := &c.parts[j]
	p.sum -= c.vals[pos]
	last := p.start + p.n - 1
	if pos != last {
		c.vals[pos] = c.vals[last]
		c.mover.Move(pos, last)
	}
	p.n--
	c.size--
}

// Update changes one live occurrence of old to new, preserving the row's
// payload. It performs a point query for the source partition and then a
// direct ripple toward the target partition (§3, Fig. 7f/7g). The returned
// position is the row's new physical slot.
//
// The payload is preserved by the table layer: callers that carry payloads
// must snapshot the old row before calling Update and rewrite it at the
// returned position (see table.Table.UpdateKey).
func (c *Column) Update(old, new int64) (int, error) {
	atomic.AddInt64(&c.stats.Updates, 1)
	i := c.index.Find(old)
	j := c.index.Find(new)
	src := &c.parts[i]
	found := -1
	for pos := src.start; pos < src.start+src.n; pos++ {
		if c.vals[pos] == old {
			found = pos
			break
		}
	}
	atomic.AddInt64(&c.stats.ValuesScanned, int64(src.n))
	if found < 0 {
		atomic.AddInt64(&c.stats.FailedUpdates, 1)
		return 0, fmt.Errorf("%w: %d", ErrNotFound, old)
	}
	if i == j {
		// Same partition: overwrite in place.
		c.vals[found] = new
		src.sum += new - old
		c.widen(j, new)
		return found, nil
	}
	// Delete from i (hole at end of partition i), ripple hole to j,
	// insert new at end of j.
	c.removeAt(i, found)
	if j > i {
		c.rippleHoleForward(i, j)
	} else {
		c.rippleHoleBackward(i, j)
	}
	return c.place(j, new), nil
}

// nearestSpare returns the partition closest to j with a free slot,
// preferring trailing partitions on ties (the paper ripples from the end of
// the column); −1 when the column is completely full.
func (c *Column) nearestSpare(j int) int {
	k := len(c.parts)
	for d := 1; d < k; d++ {
		if t := j + d; t < k && c.parts[t].cap > c.parts[t].n {
			return t
		}
		if t := j - d; t >= 0 && c.parts[t].cap > c.parts[t].n {
			return t
		}
	}
	return -1
}

// rippleHoleBackward transfers one free slot from partition h to the end of
// partition j, h > j: at every step the first live value of a partition
// moves into that partition's free end slot, and the freed front slot is
// handed to the preceding partition (Fig. 4a read right-to-left).
func (c *Column) rippleHoleBackward(h, j int) {
	for t := h; t > j; t-- {
		p := &c.parts[t]
		if p.n > 0 {
			dst, src := p.start+p.n, p.start
			c.vals[dst] = c.vals[src]
			c.mover.Move(dst, src)
		}
		p.start++
		p.cap--
		c.parts[t-1].cap++
		atomic.AddInt64(&c.stats.RippleSteps, 1)
	}
}

// rippleHoleForward transfers one free slot from partition h to the end of
// partition j, h < j: at every step the last live value of a partition
// moves into the free slot just before the partition, and the partition's
// region shifts left, leaving the free slot at its end.
func (c *Column) rippleHoleForward(h, j int) {
	for t := h + 1; t <= j; t++ {
		p := &c.parts[t]
		c.parts[t-1].cap--
		p.start--
		p.cap++
		if p.n > 0 {
			dst, src := p.start, p.start+p.n
			c.vals[dst] = c.vals[src]
			c.mover.Move(dst, src)
		}
		atomic.AddInt64(&c.stats.RippleSteps, 1)
	}
}

// rippleHoleToEnd pushes the free slot at the end of partition j to the end
// of the column (Dense-mode deletes, Fig. 4b).
func (c *Column) rippleHoleToEnd(j int) {
	c.rippleHoleForward(j, len(c.parts)-1)
}

// grow extends the column with a batch of free slots appended to the last
// partition.
func (c *Column) grow() {
	const batch = 64
	atomic.AddInt64(&c.stats.Growths, 1)
	c.vals = append(c.vals, make([]int64, batch)...)
	c.mover.Grow(len(c.vals))
	c.parts[len(c.parts)-1].cap += batch
}

// RefreshZonemaps recomputes every partition's min/max exactly. Deletes
// leave the bounds conservative (never narrowed); a periodic refresh
// restores tightness, as Zonemap maintenance does in practice (§6.3).
func (c *Column) RefreshZonemaps() {
	for j := range c.parts {
		p := &c.parts[j]
		if p.n == 0 {
			continue
		}
		p.min, p.max = c.vals[p.start], c.vals[p.start]
		for _, x := range c.vals[p.start+1 : p.start+p.n] {
			if x < p.min {
				p.min = x
			}
			if x > p.max {
				p.max = x
			}
		}
	}
}

// Validate checks the structural invariants; tests call it after random
// operation sequences.
func (c *Column) Validate() error {
	pos := 0
	total := 0
	for j := range c.parts {
		p := &c.parts[j]
		if p.start != pos {
			return fmt.Errorf("partition %d starts at %d, want %d", j, p.start, pos)
		}
		if p.n < 0 || p.n > p.cap {
			return fmt.Errorf("partition %d has n=%d cap=%d", j, p.n, p.cap)
		}
		pos += p.cap
		total += p.n
		// Every live value must route back to this partition, sit inside
		// its (conservative) zonemap bounds and be counted in its (exact) sum.
		var sum int64
		for i := p.start; i < p.start+p.n; i++ {
			sum += c.vals[i]
			if owner := c.index.Find(c.vals[i]); owner != j {
				return fmt.Errorf("value %d at slot %d sits in partition %d but routes to %d",
					c.vals[i], i, j, owner)
			}
			if c.vals[i] < p.min || c.vals[i] > p.max {
				return fmt.Errorf("value %d at slot %d outside zonemap [%d,%d] of partition %d",
					c.vals[i], i, p.min, p.max, j)
			}
		}
		if sum != p.sum {
			return fmt.Errorf("partition %d carries sum %d, live values add up to %d", j, p.sum, sum)
		}
	}
	if pos != len(c.vals) {
		return fmt.Errorf("partitions cover %d slots, column has %d", pos, len(c.vals))
	}
	if total != c.size {
		return fmt.Errorf("live count %d != size %d", total, c.size)
	}
	return nil
}

// Snapshot returns all live values in an unspecified order; tests use it to
// compare multisets.
func (c *Column) Snapshot() []int64 {
	out := make([]int64, 0, c.size)
	for j := range c.parts {
		p := &c.parts[j]
		out = append(out, c.vals[p.start:p.start+p.n]...)
	}
	return out
}

// SortedSnapshot returns all live values sorted ascending.
func (c *Column) SortedSnapshot() []int64 {
	out := c.Snapshot()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
