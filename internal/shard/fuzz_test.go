package shard

// Fuzz coverage for the range partitioner under adversarial boundary sets:
// RangePartitionerFromBounds ingests bounds from durable artifacts (manifest,
// checkpoints, WAL boundary records) that a crash or corruption can leave
// empty, duplicated, unsorted, or at the int64 extremes, and proposeBounds
// feeds RebalanceTo. Routing must stay total, stable, monotone, and
// span-consistent for every input. The seed corpus includes real rebalance
// proposals (padded quantile bounds) alongside the adversarial shapes.

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"
)

func encodeBounds(bounds ...int64) []byte {
	out := make([]byte, 0, 8*len(bounds))
	for _, b := range bounds {
		out = binary.LittleEndian.AppendUint64(out, uint64(b))
	}
	return out
}

func FuzzRangePartitionerFromBounds(f *testing.F) {
	f.Add(encodeBounds(), int64(0))
	f.Add(encodeBounds(0), int64(5))
	f.Add(encodeBounds(5, 5, 5), int64(5))                        // duplicates
	f.Add(encodeBounds(9, 3, 7), int64(4))                        // unsorted
	f.Add(encodeBounds(math.MinInt64, math.MaxInt64), int64(-1))  // extremes
	f.Add(encodeBounds(math.MaxInt64, math.MaxInt64-1), int64(1)) // reversed extremes
	f.Add(encodeBounds(-10, -10, 0, 0, 10, 10), int64(0))         // dup runs
	f.Add(encodeBounds(proposeBounds([]int64{1, 2, 3, 100, 200, 300}, 4)...), int64(150))
	f.Add(encodeBounds(proposeBounds([]int64{7, 7, 7, 7}, 8)...), int64(7))
	f.Add(encodeBounds(proposeBounds(nil, 6)...), int64(2))

	f.Fuzz(func(t *testing.T, data []byte, probe int64) {
		if len(data) > 64*8 {
			data = data[:64*8]
		}
		var bounds []int64
		for i := 0; i+8 <= len(data); i += 8 {
			bounds = append(bounds, int64(binary.LittleEndian.Uint64(data[i:])))
		}
		p := RangePartitionerFromBounds(bounds)
		n := p.Shards()
		if n < 1 || n > len(bounds)+1 {
			t.Fatalf("Shards() = %d for %d raw bounds", n, len(bounds))
		}
		got := p.Bounds()
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("sanitized bounds not strictly increasing: %v", got)
			}
		}

		// Sample keys: the probe, the boundaries, and their neighborhoods
		// (wrapping at the extremes is fine — any int64 is a legal key).
		samples := []int64{probe, probe + 1, probe - 1, 0, math.MinInt64, math.MaxInt64}
		for _, b := range got {
			samples = append(samples, b, b-1, b+1)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

		last := 0
		for i, k := range samples {
			s := p.Shard(k)
			if s < 0 || s >= n {
				t.Fatalf("Shard(%d) = %d outside [0,%d)", k, s, n)
			}
			if again := p.Shard(k); again != s {
				t.Fatalf("Shard(%d) unstable: %d then %d", k, s, again)
			}
			if i > 0 && s < last {
				t.Fatalf("routing not monotone: Shard(%d)=%d after Shard(%d)=%d", k, s, samples[i-1], last)
			}
			last = s
		}

		// Span containment: every sampled key inside [lo, hi] routes inside
		// Span(lo, hi), including a reversed argument order.
		for trial := 0; trial+1 < len(samples); trial += 3 {
			lo, hi := samples[trial], samples[trial+1]
			a, b := p.Span(lo, hi)
			if a2, b2 := p.Span(hi, lo); a2 != a || b2 != b {
				t.Fatalf("Span not symmetric: (%d,%d) vs (%d,%d)", a, b, a2, b2)
			}
			for _, k := range samples {
				if k < lo || k > hi {
					continue
				}
				if s := p.Shard(k); s < a || s > b {
					t.Fatalf("key %d in [%d,%d] routed to %d outside span [%d,%d]", k, lo, hi, s, a, b)
				}
			}
		}

		// Idempotence: a sanitized set round-trips unchanged.
		if again := RangePartitionerFromBounds(got).Bounds(); !slices.Equal(again, got) {
			t.Fatalf("sanitize not idempotent: %v -> %v", got, again)
		}
	})
}

// FuzzProposeMinimalBounds locks the minimal-movement proposer's contract:
// for arbitrary key multisets (duplicate-heavy and int64-extreme included),
// arbitrary sanitized old boundary sets, and arbitrary skew thresholds, the
// proposal must keep exactly the old boundary count, stay strictly
// increasing without collapsing a shard, never worsen the max shard
// occupancy (post-proposal skew <= pre-proposal skew), change nothing when
// no shard breaches, and leave every boundary outside a repair region
// bit-identical.
func FuzzProposeMinimalBounds(f *testing.F) {
	f.Add(encodeBounds(), encodeBounds(0), uint8(0))
	f.Add(encodeBounds(1, 2, 3, 4, 5, 100, 200, 300), encodeBounds(50, 150), uint8(8))
	f.Add(encodeBounds(7, 7, 7, 7, 7, 7), encodeBounds(3, 10), uint8(16))
	f.Add(encodeBounds(math.MinInt64, math.MaxInt64, 0, 0), encodeBounds(math.MinInt64+1, math.MaxInt64-1), uint8(32))
	f.Add(encodeBounds(9, 9, 9, 9, 10, 11, 900, 901, 902, 903, 904, 905), encodeBounds(100, 500, 800), uint8(4))
	f.Add(encodeBounds(proposeBounds([]int64{1, 2, 3, 100, 200, 300}, 4)...), encodeBounds(proposeBounds([]int64{1, 2, 3, 100, 200, 300}, 4)...), uint8(12))

	f.Fuzz(func(t *testing.T, keyData, boundData []byte, skew uint8) {
		if len(keyData) > 256*8 {
			keyData = keyData[:256*8]
		}
		if len(boundData) > 16*8 {
			boundData = boundData[:16*8]
		}
		keys := decodeRawBounds(keyData)
		// The engine hands the proposer its installed (sanitized, strictly
		// increasing) boundary set; mirror that invariant here.
		old := RangePartitionerFromBounds(decodeRawBounds(boundData)).Bounds()
		maxSkew := 1 + float64(skew)/16 // 1.0 (→ default via guard) .. ~16.9
		got := ProposeMinimalBounds(keys, old, maxSkew)

		if len(got) != len(old) {
			t.Fatalf("proposal has %d bounds, old had %d", len(got), len(old))
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("proposal not strictly increasing: %v", got)
			}
		}
		if n := RangePartitionerFromBounds(got).Shards(); n != len(old)+1 {
			t.Fatalf("proposal yields %d shards, want %d", n, len(old)+1)
		}

		sorted := append([]int64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pre := countPerShard(sorted, old)
		post := countPerShard(sorted, got)
		if maxCount(post) > maxCount(pre) {
			t.Fatalf("proposal worsened max occupancy %d -> %d (counts %v -> %v)",
				maxCount(pre), maxCount(post), pre, post)
		}

		regions := repairRegions(pre, effectiveMaxSkew(maxSkew))
		if len(regions) == 0 && !slices.Equal(got, old) {
			t.Fatalf("no shard breaches yet bounds changed: %v -> %v", old, got)
		}
		inRegion := make([]bool, len(old))
		for _, r := range regions {
			for j := r[0]; j < r[1] && j < len(old); j++ {
				inRegion[j] = true
			}
		}
		for j := range old {
			if !inRegion[j] && got[j] != old[j] {
				t.Fatalf("boundary %d outside every repair region changed: %v -> %v (regions %v)",
					j, old, got, regions)
			}
		}
	})
}

// decodeRawBounds decodes little-endian int64s, the shared corpus encoding.
func decodeRawBounds(data []byte) []int64 {
	var out []int64
	for i := 0; i+8 <= len(data); i += 8 {
		out = append(out, int64(binary.LittleEndian.Uint64(data[i:])))
	}
	return out
}

func FuzzProposeBounds(f *testing.F) {
	f.Add(encodeBounds(), uint8(4))
	f.Add(encodeBounds(42), uint8(8))
	f.Add(encodeBounds(7, 7, 7, 7), uint8(3))
	f.Add(encodeBounds(math.MaxInt64, math.MaxInt64), uint8(5))
	f.Add(encodeBounds(math.MinInt64, math.MaxInt64), uint8(6))
	f.Add(encodeBounds(1, 2, 3, 100, 200, 300, 1000), uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, shards uint8) {
		n := int(shards%16) + 1
		if len(data) > 256*8 {
			data = data[:256*8]
		}
		var keys []int64
		for i := 0; i+8 <= len(data); i += 8 {
			keys = append(keys, int64(binary.LittleEndian.Uint64(data[i:])))
		}
		b := proposeBounds(keys, n)
		if len(b) != n-1 {
			t.Fatalf("proposeBounds(%d keys, %d shards) returned %d bounds", len(keys), n, len(b))
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("proposal not strictly increasing: %v", b)
			}
		}
		p := RangePartitionerFromBounds(b)
		if p.Shards() != n {
			t.Fatalf("proposal yields %d shards, want %d", p.Shards(), n)
		}
		// Every input key routes somewhere legal, and with enough distinct
		// keys the quantile split keeps every key's shard near its rank.
		for _, k := range keys {
			if s := p.Shard(k); s < 0 || s >= n {
				t.Fatalf("key %d routed to %d of %d", k, s, n)
			}
		}
	})
}
