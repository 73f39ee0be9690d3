package table

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"casper/internal/workload"
)

// refRange returns the expected (keys, rows) of a [lo, hi] scan by brute
// force from a Snapshot taken before the scan.
func refRange(keys []int64, rows [][]int32, lo, hi int64) ([]int64, [][]int32) {
	var rk []int64
	var rr [][]int32
	for i, k := range keys {
		if k >= lo && k <= hi {
			rk = append(rk, k)
			rr = append(rr, rows[i])
		}
	}
	return rk, rr
}

func drainScan(t *testing.T, it *ScanIter, max int) ([]int64, [][]int32) {
	t.Helper()
	var keys []int64
	var rows [][]int32
	buf := &RowBuf{}
	prevLast := int64(math.MinInt64)
	for it.NextBatch(buf, max) {
		if buf.Len() == 0 {
			t.Fatal("NextBatch returned true with empty batch")
		}
		if buf.Keys[0] == prevLast && prevLast != math.MinInt64 {
			t.Fatalf("duplicate run split across batches at key %d", prevLast)
		}
		for i, k := range buf.Keys {
			if i > 0 && k < buf.Keys[i-1] {
				t.Fatalf("batch not ascending: %d after %d", k, buf.Keys[i-1])
			}
			if k < prevLast {
				t.Fatalf("batch regressed below previous batch: %d < %d", k, prevLast)
			}
		}
		prevLast = buf.Keys[buf.Len()-1]
		keys = append(keys, buf.Keys...)
		for _, r := range buf.Rows {
			rows = append(rows, append([]int32(nil), r...))
		}
	}
	return keys, rows
}

// TestScanRangeMatchesSnapshot checks, in every layout mode and across batch
// sizes, that the chunk-bounded iterator yields exactly the rows a
// materialized Snapshot reports for the range, in ascending key order.
func TestScanRangeMatchesSnapshot(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 3000)
		// Force duplicates so runs exercise the key-boundary batch cut.
		for i := 0; i < 50; i++ {
			tb.Insert(int64(1000 + i%10))
		}
		keys, rows := tb.Snapshot()
		for _, batch := range []int{1, 7, 256, 0} {
			for _, rng := range [][2]int64{
				{0, 30_000}, {500, 1500}, {math.MinInt64, math.MaxInt64},
				{29_999, 29_000}, // empty (hi < lo)
			} {
				wantK, wantR := refRange(keys, rows, rng[0], rng[1])
				it := tb.ScanRange(rng[0], rng[1])
				gotK, gotR := drainScan(t, it, batch)
				it.Close()
				if len(gotK) != len(wantK) {
					t.Fatalf("%v batch=%d range=%v: %d keys, want %d", mode, batch, rng, len(gotK), len(wantK))
				}
				for i := range gotK {
					if gotK[i] != wantK[i] {
						t.Fatalf("%v batch=%d: key[%d]=%d want %d", mode, batch, i, gotK[i], wantK[i])
					}
					if !rowsEqual(gotR[i], wantR[i]) {
						t.Fatalf("%v batch=%d: row[%d]=%v want %v", mode, batch, i, gotR[i], wantR[i])
					}
				}
			}
		}
	}
}

// TestScanRangeKeysOnly checks the keys-only scan agrees with KeysInRange.
func TestScanRangeKeysOnly(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 2000)
		want := tb.KeysInRange(100, 9000)
		it := tb.ScanRangeKeys(100, 9000)
		got, rows := drainScan(t, it, 64)
		it.Close()
		if len(rows) != 0 {
			t.Fatalf("%v: keys-only scan yielded %d rows", mode, len(rows))
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d keys, want %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: key[%d]=%d want %d", mode, i, got[i], want[i])
			}
		}
	}
}

// TestScanSurvivesConcurrentMutation interleaves writes with a paused scan:
// the iterator must revalidate its chunk capture and keep yielding a sorted,
// duplicate-run-intact stream whose keys all belong to the union of the
// original and inserted key sets.
func TestScanSurvivesConcurrentMutation(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 3000)
		valid := make(map[int64]bool)
		for _, k := range tb.Keys() {
			valid[k] = true
		}
		rng := rand.New(rand.NewSource(7))
		it := tb.ScanRange(math.MinInt64, math.MaxInt64)
		buf := &RowBuf{}
		last := int64(math.MinInt64)
		n := 0
		for it.NextBatch(buf, 128) {
			for _, k := range buf.Keys {
				if k < last {
					t.Fatalf("%v: scan regressed: %d < %d", mode, k, last)
				}
				last = k
				if !valid[k] {
					t.Fatalf("%v: scan yielded key %d never inserted", mode, k)
				}
			}
			n += buf.Len()
			// Mutate between batches: inserts ahead and behind, deletes,
			// and an update, all bumping chunk versions mid-scan.
			for i := 0; i < 5; i++ {
				k := rng.Int63n(30_000)
				tb.Insert(k)
				valid[k] = true
			}
			_ = tb.Delete(rng.Int63n(30_000))
			nk := rng.Int63n(30_000)
			if tb.UpdateKey(rng.Int63n(30_000), nk) == nil {
				valid[nk] = true
			}
		}
		it.Close()
		if n == 0 {
			t.Fatalf("%v: scan yielded nothing", mode)
		}
	}
}

// TestScanExtremeKeys pins the int64 boundary behavior: keys at MinInt64 and
// MaxInt64 are yielded exactly once and the iterator terminates.
func TestScanExtremeKeys(t *testing.T) {
	for _, mode := range Modes() {
		keys := []int64{math.MinInt64, math.MinInt64, -5, 0, 7, math.MaxInt64, math.MaxInt64}
		tb, err := New(keys, testConfig(mode), nil)
		if err != nil {
			t.Fatalf("New(%v): %v", mode, err)
		}
		it := tb.ScanRange(math.MinInt64, math.MaxInt64)
		got, _ := drainScan(t, it, 2)
		it.Close()
		want := append([]int64(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("%v: %d keys, want %d (%v vs %v)", mode, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: key[%d]=%d want %d", mode, i, got[i], want[i])
			}
		}
	}
}

// TestScanBufferReuse checks NextBatch reuses the caller's buffer: after a
// warmup batch, refills at the same width must not grow the arena.
func TestScanBufferReuse(t *testing.T) {
	tb := buildTable(t, Sorted, 4000)
	it := tb.ScanRange(math.MinInt64, math.MaxInt64)
	defer it.Close()
	buf := &RowBuf{}
	if !it.NextBatch(buf, 256) {
		t.Fatal("empty first batch")
	}
	capKeys, capData := cap(buf.Keys), cap(buf.data)
	for it.NextBatch(buf, 256) {
		if cap(buf.Keys) != capKeys || cap(buf.data) != capData {
			t.Fatalf("buffer grew across refills: keys %d->%d data %d->%d",
				capKeys, cap(buf.Keys), capData, cap(buf.data))
		}
	}
}

// TestSnapshotMatchesLegacyOrder regression-pins the Snapshot rebasing: the
// per-chunk stable sort must reproduce the old global stable sort, byte for
// byte, including duplicate-key payload order.
func TestSnapshotMatchesLegacyOrder(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 2500)
		for i := 0; i < 40; i++ {
			tb.InsertRow(int64(777), []int32{int32(i), int32(i * 2), 0, 0})
		}
		keys, rows := tb.Snapshot()
		if len(keys) != tb.Len() {
			t.Fatalf("%v: snapshot %d rows, want %d", mode, len(keys), tb.Len())
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			t.Fatalf("%v: snapshot keys not sorted", mode)
		}
		// Round-trip: a table rebuilt from the snapshot snapshots equal.
		tb2, err := NewFromRows(keys, rows, testConfig(mode))
		if err != nil {
			t.Fatalf("%v: NewFromRows: %v", mode, err)
		}
		k2, r2 := tb2.Snapshot()
		if len(k2) != len(keys) {
			t.Fatalf("%v: round-trip %d rows, want %d", mode, len(k2), len(keys))
		}
		for i := range keys {
			if keys[i] != k2[i] || !rowsEqual(rows[i], r2[i]) {
				t.Fatalf("%v: round-trip mismatch at %d", mode, i)
			}
		}
	}
}

// TestScanSelectThenSortMatchesReference drains ScanRange in every layout
// mode with batch sizes on both sides of the selection threshold and stops
// (a LIMIT) before, on and after the point where the first, selected
// capture of a partition runs out and the second visit sorts the rest. A
// 500-row duplicate run sits a few keys above the scan's lower bound, so the
// selection cut of the larger batches lands inside it and must take the run
// whole. Keys must equal the brute-force sorted reference, the run's rows
// must be exactly the inserted ones, and row order — duplicates included —
// must be identical whatever the batch size.
func TestScanSelectThenSortMatchesReference(t *testing.T) {
	const dups = 500
	base := workload.UniformKeys(6000, 60_000, 5)
	present := make(map[int64]bool, len(base))
	for _, k := range base {
		present[k] = true
	}
	sorted := append([]int64(nil), base...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	lo := sorted[700]
	dupKey := sorted[704] + 1 // four or five distinct keys above lo
	for present[dupKey] {
		dupKey++
	}
	var ref []int64
	for _, k := range sorted {
		if k >= lo {
			ref = append(ref, k)
		}
	}
	for i := 0; i < dups; i++ {
		ref = append(ref, dupKey)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })

	for _, mode := range Modes() {
		cfg := Config{Mode: mode, PayloadCols: 4, ChunkValues: 4096, BlockValues: 64, Partitions: 2}
		tb, err := New(base, cfg, nil)
		if err != nil {
			t.Fatalf("New(%v): %v", mode, err)
		}
		for i := 0; i < dups; i++ {
			tb.InsertRow(dupKey, []int32{int32(i), 7, 7, 7})
		}
		var canon [][]int32 // row order of the first full drain
		for _, batch := range []int{1, 7, 256, 0} {
			eb := batch
			if eb == 0 {
				eb = DefaultScanBatch
			}
			for _, limit := range []int{eb - 1, eb, eb + 1, 3 * eb, len(ref)} {
				it := tb.ScanRange(lo, math.MaxInt64)
				buf := &RowBuf{}
				var keys []int64
				var rows [][]int32
				for len(keys) < limit && it.NextBatch(buf, batch) {
					keys = append(keys, buf.Keys...)
					for _, r := range buf.Rows {
						rows = append(rows, append([]int32(nil), r...))
					}
				}
				it.Close()
				if len(keys) < min(limit, len(ref)) {
					t.Fatalf("%v batch=%d limit=%d: scan ended after %d of %d rows", mode, batch, limit, len(keys), len(ref))
				}
				seen := make(map[int32]bool)
				for i, k := range keys {
					if k != ref[i] {
						t.Fatalf("%v batch=%d limit=%d: key[%d]=%d, reference %d", mode, batch, limit, i, k, ref[i])
					}
					if k == dupKey {
						if rows[i][1] != 7 || seen[rows[i][0]] {
							t.Fatalf("%v batch=%d limit=%d: duplicate-run row %v repeated or foreign", mode, batch, limit, rows[i])
						}
						seen[rows[i][0]] = true
					} else if rows[i][2] != DefaultPayload(k, 2) {
						t.Fatalf("%v batch=%d limit=%d: row[%d] of key %d = %v", mode, batch, limit, i, k, rows[i])
					}
				}
				if n := len(seen); n != 0 && n != dups {
					t.Fatalf("%v batch=%d limit=%d: duplicate run split, %d of %d rows in the batches", mode, batch, limit, n, dups)
				}
				if canon == nil && len(keys) == len(ref) {
					canon = rows
				}
				for i := range rows {
					if canon != nil && !rowsEqual(rows[i], canon[i]) {
						t.Fatalf("%v batch=%d limit=%d: row[%d]=%v, batch=1 drain yielded %v", mode, batch, limit, i, rows[i], canon[i])
					}
				}
			}
		}
	}
}

// TestFirstBatchReadsOnePartition is the counted form of "LIMIT 10 stops
// paying for the rest of the range": on a trained multi-partition chunk the
// first NextBatch(buf, 10) of a chunk-wide scan may raise the column's
// ValuesScanned by at most the size of the partition owning the scan's lower
// bound (the previous capture read every partition of the range).
func TestFirstBatchReadsOnePartition(t *testing.T) {
	keys := make([]int64, 4096)
	for i := range keys {
		keys[i] = int64(3 * i)
	}
	tb, err := New(keys, Config{Mode: Casper, PayloadCols: 2, ChunkValues: 8192, BlockValues: 32, Partitions: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sample []workload.Op
	for i := 0; i < 4000; i++ {
		sample = append(sample, workload.Op{Kind: workload.Q1PointQuery, Key: int64(3 * ((i * 37) % 4096))})
	}
	if err := tb.TrainLayout(sample, 1); err != nil {
		t.Fatal(err)
	}
	col := tb.chunks[0].casperCol
	sizes := col.PartitionSizes()
	if len(sizes) != 16 {
		t.Fatalf("trained chunk has %d partitions, want the full budget of 16", len(sizes))
	}
	for _, lo := range []int64{0, keys[1000], keys[3000]} {
		owner := sizes[col.FindPartition(lo)]
		before := col.Stats().ValuesScanned
		it := tb.ScanRange(lo, math.MaxInt64)
		buf := &RowBuf{}
		if !it.NextBatch(buf, 10) || buf.Len() != 10 || buf.Keys[0] != lo {
			t.Fatalf("lo=%d: first batch %v", lo, buf.Keys)
		}
		it.Close()
		if got := col.Stats().ValuesScanned - before; got > int64(owner) {
			t.Fatalf("lo=%d: first batch of 10 visited %d values, owning partition holds %d", lo, got, owner)
		}
	}
}

// TestMultiRangeSumPositional checks the select-then-probe MultiRangeSum
// against a row-wise reference over the Snapshot, with 0, 1 and 3 payload
// filters, in every layout mode and after writes have shuffled positions.
func TestMultiRangeSumPositional(t *testing.T) {
	for _, mode := range Modes() {
		tb := buildTable(t, mode, 3000)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			tb.InsertRow(rng.Int63n(30_000), []int32{int32(rng.Intn(100)), int32(rng.Intn(100)), int32(i), -1})
			_ = tb.Delete(rng.Int63n(30_000))
			_ = tb.UpdateKey(rng.Int63n(30_000), rng.Int63n(30_000))
		}
		keys, rows := tb.Snapshot()
		for _, filters := range [][]PayloadFilter{
			nil,
			{{Col: 0, Lo: 10, Hi: 20_000}},
			{{Col: 0, Lo: 0, Hi: 25_000}, {Col: 1, Lo: 40, Hi: 22_000}, {Col: 3, Lo: -1, Hi: 9_000}},
		} {
			for _, r := range [][2]int64{{math.MinInt64, math.MaxInt64}, {2_000, 21_000}, {15_000, 15_400}, {9, 3}} {
				var want int64
			rowLoop:
				for i, k := range keys {
					if k < r[0] || k > r[1] {
						continue
					}
					for _, f := range filters {
						if x := rows[i][f.Col]; x < f.Lo || x > f.Hi {
							continue rowLoop
						}
					}
					want += int64(rows[i][2])
				}
				if got := tb.MultiRangeSum(r[0], r[1], filters, 2); got != want {
					t.Fatalf("%v %d filters [%d,%d]: MultiRangeSum=%d, row-wise reference %d", mode, len(filters), r[0], r[1], got, want)
				}
			}
		}
	}
}
