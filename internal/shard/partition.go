package shard

import (
	"math"
	"sort"
)

// Partitioner routes keys to shards.
type Partitioner interface {
	// Shard returns the ordinal of the shard owning key. Every occurrence
	// of a key (duplicates included) must route to the same shard.
	Shard(key int64) int
	// Span returns the inclusive shard interval [a, b] that a key range
	// [lo, hi] can touch.
	Span(lo, hi int64) (int, int)
	// Shards returns the shard count.
	Shards() int
}

// HashPartitioner spreads keys across shards by a Fibonacci multiplicative
// hash. It is robust to key skew — a hot key range fans out over the whole
// fleet — at the price of range queries touching every shard.
type HashPartitioner struct {
	n int
}

// NewHashPartitioner builds a hash partitioner over n shards.
func NewHashPartitioner(n int) *HashPartitioner {
	if n < 1 {
		n = 1
	}
	return &HashPartitioner{n: n}
}

// fibMix is 2^64 / phi, the Fibonacci hashing multiplier.
const fibMix = 0x9e3779b97f4a7c15

// Shard implements Partitioner.
func (p *HashPartitioner) Shard(key int64) int {
	h := uint64(key) * fibMix
	h ^= h >> 29
	return int(h % uint64(p.n))
}

// Span implements Partitioner: a hash-partitioned range touches every shard.
func (p *HashPartitioner) Span(lo, hi int64) (int, int) { return 0, p.n - 1 }

// Shards implements Partitioner.
func (p *HashPartitioner) Shards() int { return p.n }

// RangePartitioner splits the key domain at fixed boundaries, so range
// queries touch only the shards overlapping the range. Boundaries are
// typically quantiles of the initial key set (see NewRangePartitioner).
type RangePartitioner struct {
	// bounds[i] is the smallest key owned by shard i+1; len(bounds) is
	// one less than the shard count.
	bounds []int64
}

// NewRangePartitioner builds a range partitioner with n shards whose
// boundaries are the n-quantiles of keys (any order), so the initial load
// balances evenly even under skewed key distributions.
func NewRangePartitioner(keys []int64, n int) *RangePartitioner {
	if n < 1 {
		n = 1
	}
	sorted := make([]int64, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var bounds []int64
	for i := 1; i < n && len(sorted) > 0; i++ {
		b := sorted[i*len(sorted)/n]
		// Boundaries must be strictly increasing or duplicate keys could
		// straddle shards; collapse ties rather than split a key.
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			continue
		}
		bounds = append(bounds, b)
	}
	return &RangePartitioner{bounds: bounds}
}

// RangePartitionerFromBounds rebuilds a range partitioner from boundaries
// previously captured with Bounds — the recovery path, where the boundaries
// come from the durable manifest (or a checkpoint / WAL boundary record)
// rather than from the initial key set. The input is sanitized defensively:
// Shard's binary search requires strictly increasing boundaries, and a
// corrupted or adversarial bounds set that is unsorted or holds duplicates
// would otherwise misroute keys silently. Sanitizing may shrink the set;
// callers that require an exact shard count must validate the length of
// Bounds() after the round trip.
func RangePartitionerFromBounds(bounds []int64) *RangePartitioner {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	out := b[:0]
	for _, v := range b {
		if len(out) == 0 || v > out[len(out)-1] {
			out = append(out, v)
		}
	}
	return &RangePartitioner{bounds: out}
}

// Bounds returns the partitioner's shard boundaries (bounds[i] is the
// smallest key owned by shard i+1), for persistence in a durable manifest.
func (p *RangePartitioner) Bounds() []int64 {
	return append([]int64(nil), p.bounds...)
}

// Shard implements Partitioner: the number of boundaries ≤ key.
func (p *RangePartitioner) Shard(key int64) int {
	return sort.Search(len(p.bounds), func(i int) bool { return p.bounds[i] > key })
}

// Span implements Partitioner.
func (p *RangePartitioner) Span(lo, hi int64) (int, int) {
	if hi < lo {
		lo, hi = hi, lo
	}
	return p.Shard(lo), p.Shard(hi)
}

// Shards implements Partitioner.
func (p *RangePartitioner) Shards() int { return len(p.bounds) + 1 }

// ProposeMinimalBounds is the minimal-movement rebalance proposer: instead
// of re-splitting every boundary on the global quantiles, it
// computes per-shard occupancy under oldBounds, identifies only the shards
// breaching the skew bound, and re-splits each repair region — a breaching
// shard plus the lighter neighbors absorbing its load — on the region's own
// quantiles, leaving every boundary outside the regions bit-identical.
// Migration volume and the publish-window straggler rescan then scale with
// the drift that actually occurred, not with the table size.
//
// Guarantees, for any input (the fuzz wall's invariants):
//
//   - exactly len(oldBounds) strictly increasing boundaries are returned;
//   - boundaries not interior to a repair region are returned unchanged;
//   - the proposal never worsens the max shard occupancy: if a region's keys
//     are too duplicate-heavy (or its key interval too narrow) to split any
//     better, oldBounds is returned verbatim and the rebalance degenerates
//     to a movement-free no-op.
//
// maxSkew is the max/mean row-count ratio that marks a shard as breaching;
// values that are NaN or <= 1 select the default (defaultMaxSkew).
func ProposeMinimalBounds(keys []int64, oldBounds []int64, maxSkew float64) []int64 {
	out := append([]int64(nil), oldBounds...)
	n := len(oldBounds) + 1
	if n == 1 || len(keys) == 0 {
		return out
	}
	for i := 1; i < len(oldBounds); i++ {
		if oldBounds[i] <= oldBounds[i-1] {
			return out // corrupt boundary set; never amplify it
		}
	}
	maxSkew = effectiveMaxSkew(maxSkew)
	sorted := make([]int64, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	counts := countPerShard(sorted, oldBounds)
	regions := repairRegions(counts, maxSkew)
	if len(regions) == 0 {
		return out
	}
	changed := false
	for _, r := range regions {
		a, b := r[0], r[1]
		// The region's outer boundaries are fixed; its inner boundaries must
		// stay strictly inside them. At the fleet edges the key domain itself
		// is the only limit.
		loIdx, hiIdx := 0, len(sorted)
		loLim, hiLim := int64(math.MinInt64), int64(math.MaxInt64)
		if a > 0 {
			if oldBounds[a-1] == math.MaxInt64 {
				continue // no key space above the fixed lower boundary
			}
			loLim = oldBounds[a-1] + 1
			loIdx = sort.Search(len(sorted), func(j int) bool { return sorted[j] >= oldBounds[a-1] })
		}
		if b < n-1 {
			if oldBounds[b] == math.MinInt64 {
				continue // no key space below the fixed upper boundary
			}
			hiLim = oldBounds[b] - 1
			hiIdx = sort.Search(len(sorted), func(j int) bool { return sorted[j] >= oldBounds[b] })
		}
		rb := regionBounds(sorted[loIdx:hiIdx], b-a+1, loLim, hiLim)
		if rb == nil {
			continue // interval cannot hold the inner boundaries; leave as is
		}
		copy(out[a:b], rb)
		changed = true
	}
	if !changed {
		return out
	}
	// Install only a strict improvement: a duplicate-heavy region can defeat
	// any re-split, and skew is max/mean — a proposal that does not lower
	// the max occupancy would migrate rows for zero skew gain (or worse).
	if maxCount(countPerShard(sorted, out)) >= maxCount(counts) {
		return append([]int64(nil), oldBounds...)
	}
	return out
}

// effectiveMaxSkew guards nonsense skew thresholds (NaN, <= 1) back to the
// package default.
func effectiveMaxSkew(maxSkew float64) float64 {
	if !(maxSkew > 1) {
		return defaultMaxSkew
	}
	return maxSkew
}

// countPerShard returns the per-shard occupancy of sorted keys under bounds.
func countPerShard(sorted []int64, bounds []int64) []int {
	counts := make([]int, len(bounds)+1)
	prev := 0
	for i, b := range bounds {
		idx := sort.Search(len(sorted), func(j int) bool { return sorted[j] >= b })
		counts[i] = idx - prev
		prev = idx
	}
	counts[len(bounds)] = len(sorted) - prev
	return counts
}

func maxCount(counts []int) int {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return max
}

// repairRegions identifies the contiguous shard runs a minimal rebalance must
// re-split: every shard whose occupancy breaches the skew bound (count/mean
// >= maxSkew), expanded over its lighter neighbor shard by shard until the
// region's mean occupancy fits under the repair target — 90% of the breach
// threshold, floored at the fleet mean so the expansion terminates (at the
// whole fleet, degenerating to a full re-split) when the drift simply
// outgrew the fleet. Overlapping regions merge. Returns nil when no shard
// breaches: the no-breach fleet proposes no movement at all.
func repairRegions(counts []int, maxSkew float64) [][2]int {
	n := len(counts)
	total := 0
	for _, c := range counts {
		total += c
	}
	if n < 2 || total == 0 {
		return nil
	}
	mean := float64(total) / float64(n)
	breachAt := maxSkew * mean
	target := 0.9 * breachAt
	if target < mean {
		target = mean
	}
	var regions [][2]int
	for i := 0; i < n; i++ {
		if float64(counts[i]) < breachAt {
			continue
		}
		a, b, sum := i, i, counts[i]
		for float64(sum) > target*float64(b-a+1) && (a > 0 || b < n-1) {
			switch {
			case a == 0:
				b++
				sum += counts[b]
			case b == n-1:
				a--
				sum += counts[a]
			case counts[a-1] <= counts[b+1]:
				a-- // merge the starved left neighbor
				sum += counts[a]
			default:
				b++ // merge the starved right neighbor
				sum += counts[b]
			}
		}
		if len(regions) > 0 && a <= regions[len(regions)-1][1] {
			regions[len(regions)-1][1] = b
		} else {
			regions = append(regions, [2]int{a, b})
		}
		i = b
	}
	return regions
}

// regionBounds proposes the size-1 strictly increasing inner boundaries of
// one repair region from the region's sorted keys, every boundary confined
// to [loLim, hiLim] (the values strictly between the region's fixed outer
// boundaries). Returns nil when the interval cannot hold size-1 distinct
// values — the caller leaves the region unchanged rather than emit an
// invalid bounds vector.
func regionBounds(sortedKeys []int64, size int, loLim, hiLim int64) []int64 {
	need := size - 1
	if need <= 0 {
		return []int64{}
	}
	if loLim > hiLim || uint64(hiLim)-uint64(loLim) < uint64(need-1) {
		return nil
	}
	var bounds []int64
	for i := 1; i <= need && len(sortedKeys) > 0; i++ {
		idx := i * len(sortedKeys) / size
		if idx >= len(sortedKeys) {
			idx = len(sortedKeys) - 1
		}
		b := sortedKeys[idx]
		if b < loLim {
			b = loLim
		}
		if b > hiLim {
			b = hiLim
		}
		if len(bounds) > 0 && b <= bounds[len(bounds)-1] {
			continue
		}
		bounds = append(bounds, b)
	}
	return padBoundsWithin(bounds, need, loLim, hiLim)
}

// padBoundsWithin extends a strictly increasing boundary set already inside
// [loLim, hiLim] to exactly need entries without leaving the interval. The caller has verified the interval's capacity, so
// the only nil return is the unreachable exhausted-interval case.
func padBoundsWithin(bounds []int64, need int, loLim, hiLim int64) []int64 {
	for len(bounds) < need {
		switch {
		case len(bounds) == 0:
			bounds = append(bounds, loLim)
		case bounds[len(bounds)-1] < hiLim:
			bounds = append(bounds, bounds[len(bounds)-1]+1)
		case bounds[0] > loLim:
			bounds = append([]int64{bounds[0] - 1}, bounds...)
		default:
			inserted := false
			for i := 0; i+1 < len(bounds); i++ {
				if bounds[i+1] > bounds[i]+1 {
					bounds = append(bounds[:i+1], append([]int64{bounds[i] + 1}, bounds[i+1:]...)...)
					inserted = true
					break
				}
			}
			if !inserted {
				return nil
			}
		}
	}
	return bounds
}

// keyInterval is one inclusive key range whose owning shard changes across a
// boundary install, tagged with the owners before (from) and after (to).
type keyInterval struct {
	lo, hi   int64
	from, to int
}

// ownershipDelta computes the interval diff between two boundary sets: the
// inclusive key ranges whose owner differs between the partitioners built
// from oldBounds and newBounds, ascending, adjacent same-owner intervals
// merged. The rebalance protocol plans its whole migration from these
// intervals — rows outside them keep their owner by construction, so neither
// the staging scan nor the publish-window straggler rescan ever visits them,
// and a boundary left bit-identical by the proposer contributes nothing.
// An empty diff (equal bounds, or a single-shard engine with no bounds at
// all) yields nil: the rebalance is a no-op.
func ownershipDelta(oldBounds, newBounds []int64) []keyInterval {
	oldPart := RangePartitionerFromBounds(oldBounds)
	newPart := RangePartitionerFromBounds(newBounds)
	// Between consecutive breakpoints (the union of both boundary sets) both
	// owners are constant, so sampling each interval's low end suffices.
	merged := append(oldPart.Bounds(), newPart.Bounds()...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	var out []keyInterval
	emit := func(lo, hi int64) {
		f, t := oldPart.Shard(lo), newPart.Shard(lo)
		if f == t {
			return
		}
		if len(out) > 0 {
			if last := &out[len(out)-1]; last.from == f && last.to == t && last.hi+1 == lo {
				last.hi = hi
				return
			}
		}
		out = append(out, keyInterval{lo: lo, hi: hi, from: f, to: t})
	}
	prev := int64(math.MinInt64)
	for i, bp := range merged {
		if i > 0 && bp == merged[i-1] {
			continue
		}
		if bp == math.MinInt64 {
			continue // the interval below the breakpoint is empty
		}
		emit(prev, bp-1)
		prev = bp
	}
	emit(prev, math.MaxInt64)
	return out
}
