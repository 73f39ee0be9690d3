package shard

// Minimal-movement rebalancing suite: table-driven coverage for the
// ownership-delta interval computation and the minimal-bounds proposer, a
// movement comparison pinning minimal strictly below the quantile baseline
// on a drifted tail, and the delta-rescan equivalence property test — on
// randomized op streams with forced drifts and writes injected between the
// staging batches, the publish-window rescan bounded to the changed
// intervals must stage exactly the same straggler multiset as a full-table
// rescan (shadow comparison through the verifyRescan seam).

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"casper/internal/workload"
)

func TestOwnershipDelta(t *testing.T) {
	cases := []struct {
		name     string
		old, new []int64
		want     []keyInterval
	}{
		{
			name: "empty delta",
			old:  []int64{10, 20, 30},
			new:  []int64{10, 20, 30},
			want: nil,
		},
		{
			name: "single-shard engine no-op",
			old:  nil,
			new:  nil,
			want: nil,
		},
		{
			name: "split moves keys down a shard",
			old:  []int64{10, 20},
			new:  []int64{10, 15},
			want: []keyInterval{{lo: 15, hi: 19, from: 1, to: 2}},
		},
		{
			name: "adjacent-shard merge",
			old:  []int64{10, 15},
			new:  []int64{10, 20},
			want: []keyInterval{{lo: 15, hi: 19, from: 2, to: 1}},
		},
		{
			name: "interior change leaves outer shards alone",
			old:  []int64{10, 20, 30},
			new:  []int64{10, 25, 30},
			want: []keyInterval{{lo: 20, hi: 24, from: 2, to: 1}},
		},
		{
			name: "wraparound extremes",
			old:  []int64{math.MinInt64 + 1},
			new:  []int64{math.MaxInt64},
			want: []keyInterval{{lo: math.MinInt64 + 1, hi: math.MaxInt64 - 1, from: 1, to: 0}},
		},
		{
			name: "boundary shift by one",
			old:  []int64{0},
			new:  []int64{1},
			want: []keyInterval{{lo: 0, hi: 0, from: 1, to: 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ownershipDelta(tc.old, tc.new)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ownershipDelta(%v, %v) = %+v, want %+v", tc.old, tc.new, got, tc.want)
			}
			// The diff is symmetric up to owner swap: every interval of the
			// reverse direction mirrors from/to.
			rev := ownershipDelta(tc.new, tc.old)
			if len(rev) != len(got) {
				t.Fatalf("reverse delta has %d intervals, forward %d", len(rev), len(got))
			}
			for i := range got {
				if rev[i].lo != got[i].lo || rev[i].hi != got[i].hi ||
					rev[i].from != got[i].to || rev[i].to != got[i].from {
					t.Fatalf("reverse delta %+v does not mirror %+v", rev[i], got[i])
				}
			}
		})
	}
}

func TestProposeMinimalBounds(t *testing.T) {
	uniform := func(n int, domain int64, seed int64) []int64 {
		return workload.UniformKeys(n, domain, seed)
	}

	t.Run("no breach is a verbatim no-op", func(t *testing.T) {
		keys := uniform(8_000, 100_000, 3)
		old := proposeBounds(keys, 4)
		got := ProposeMinimalBounds(keys, old, 1.5)
		if !slices.Equal(got, old) {
			t.Fatalf("balanced fleet proposed new bounds: %v -> %v", old, got)
		}
	})

	t.Run("drifted tail changes only the tail boundaries", func(t *testing.T) {
		base := uniform(40_000, 100_000, 5)
		old := proposeBounds(base, 4)
		keys := append(append([]int64(nil), base...), uniform(20_000, 20_000, 7)...)
		for i := len(base); i < len(keys); i++ {
			keys[i] += 100_001 // the tail drifts past the loaded domain
		}
		got := ProposeMinimalBounds(keys, old, 1.5)
		if slices.Equal(got, old) {
			t.Fatalf("drifted tail proposed no change (bounds %v)", old)
		}
		if got[0] != old[0] || got[1] != old[1] {
			t.Fatalf("tail drift rewrote head boundaries: %v -> %v", old, got)
		}
		if got[2] == old[2] {
			t.Fatalf("tail boundary unchanged despite breach: %v", got)
		}
		sorted := append([]int64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pre, post := countPerShard(sorted, old), countPerShard(sorted, got)
		if maxCount(post) >= maxCount(pre) {
			t.Fatalf("max occupancy %d -> %d did not improve", maxCount(pre), maxCount(post))
		}
		if s := skewOf(post); s >= 1.5 {
			t.Fatalf("post-proposal skew %.2f, want < 1.5 (counts %v)", s, post)
		}
	})

	t.Run("interior hotspot keeps the far boundaries", func(t *testing.T) {
		base := uniform(10_000, 100_000, 11)
		old := proposeBounds(base, 5)
		hot := make([]int64, 6_000)
		for i := range hot {
			hot[i] = old[1] + int64(i)%(old[2]-old[1]) // all inside shard 2
		}
		keys := append(append([]int64(nil), base...), hot...)
		got := ProposeMinimalBounds(keys, old, 1.5)
		if slices.Equal(got, old) {
			t.Fatal("interior hotspot proposed no change")
		}
		if got[3] != old[3] {
			t.Fatalf("hotspot in shard 2 rewrote the top boundary: %v -> %v", old, got)
		}
	})

	t.Run("duplicate-saturated fleet bails to old bounds", func(t *testing.T) {
		keys := make([]int64, 1_000)
		for i := range keys {
			keys[i] = 7
		}
		old := []int64{1, 2, 3}
		got := ProposeMinimalBounds(keys, old, 1.5)
		if !slices.Equal(got, old) {
			t.Fatalf("unsplittable duplicates proposed movement: %v -> %v", old, got)
		}
	})

	t.Run("empty keys and single shard", func(t *testing.T) {
		if got := ProposeMinimalBounds(nil, []int64{5, 9}, 1.5); !slices.Equal(got, []int64{5, 9}) {
			t.Fatalf("empty keys proposed %v", got)
		}
		if got := ProposeMinimalBounds([]int64{1, 2, 3}, nil, 1.5); len(got) != 0 {
			t.Fatalf("single-shard engine proposed %v", got)
		}
	})
}

// TestMinimalVsQuantileMovement pins the point of the minimal proposer: on
// the same drifted-tail fleet, the minimal strategy migrates strictly fewer
// rows than the exhaustive quantile baseline while both repair the skew, and
// both leave the same key multiset placed correctly.
func TestMinimalVsQuantileMovement(t *testing.T) {
	build := func() *Engine {
		keys := workload.UniformKeys(8_000, 80_000, 17)
		e, err := New(keys, rebalanceConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4_000; i++ {
			e.Insert(80_001 + int64(i))
		}
		return e
	}

	quant := build()
	qres, err := rebalanceQuantile(quant)
	if err != nil {
		t.Fatalf("quantile rebalance: %v", err)
	}
	min := build()
	mres, err := min.Rebalance() // minimal is the default
	if err != nil {
		t.Fatalf("minimal rebalance: %v", err)
	}

	if qres.Moved == 0 || mres.Moved == 0 {
		t.Fatalf("rows moved: quantile %d, minimal %d — drift scenario degenerated", qres.Moved, mres.Moved)
	}
	if mres.Moved >= qres.Moved {
		t.Fatalf("minimal moved %d rows, quantile %d — no movement saved", mres.Moved, qres.Moved)
	}
	if mres.Moved > 2*4_000 {
		t.Fatalf("minimal moved %d rows for a 4000-row drift; movement not O(drift)", mres.Moved)
	}
	if qres.SkewAfter >= 1.5 || mres.SkewAfter >= 1.5 {
		t.Fatalf("skew after: quantile %.2f, minimal %.2f; want both < 1.5", qres.SkewAfter, mres.SkewAfter)
	}
	// Minimality of the bounds vector itself: some boundary survives
	// bit-identical under minimal, none needs to under quantile.
	same := 0
	for i := range mres.NewBounds {
		if mres.NewBounds[i] == mres.OldBounds[i] {
			same++
		}
	}
	if same == 0 {
		t.Fatalf("minimal proposer changed every boundary: %v -> %v", mres.OldBounds, mres.NewBounds)
	}
	if got, want := engineKeys(min), engineKeys(quant); !reflect.DeepEqual(got, want) {
		t.Fatalf("strategies diverged on the key multiset: %d vs %d rows", len(got), len(want))
	}
	assertPlacement(t, min)
	assertPlacement(t, quant)
}

// sortKeys sorts a key multiset in place and returns it.
func sortKeys(keys []int64) []int64 {
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// TestDeltaRescanEquivalence is the equivalence property test of the
// delta-bounded straggler rescan: across randomized op streams with forced
// drifts, and with writes injected between the staging batches (the exact
// window that produces stragglers), the publish-window rescan bounded to the
// ownership-delta intervals must find exactly the same straggler multiset as
// a full scan of every shard's keys — verified inside the publish window via
// the verifyRescan seam — and every rebalance must leave the engine
// oracle-equivalent and correctly placed.
func TestDeltaRescanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const domain = int64(1 << 20)
	initial := workload.UniformKeys(3_000, domain, 9)
	e, err := New(initial, rebalanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := &sliceOracle{}
	for _, k := range initial {
		oracle.insert(k)
	}

	checked, stragglers := 0, 0
	e.verifyRescan = func(full, bounded []int64) {
		f, b := sortKeys(append([]int64(nil), full...)), sortKeys(append([]int64(nil), bounded...))
		if !reflect.DeepEqual(f, b) {
			t.Errorf("rescan multisets diverged: full scan %d keys %v, delta-bounded %d keys %v",
				len(f), f, len(b), b)
		}
		checked++
		stragglers += len(f)
	}
	// Straggler injection: inserts issued between the staging batches land
	// under the old routing; the ones inside the round's drifted (hence
	// re-split) region become exactly the stragglers the publish rescan
	// must catch.
	var hotspot int64
	e.afterStage = func() {
		for i := 0; i < 8; i++ {
			k := (hotspot + rng.Int63n(domain/16)) % domain
			e.Insert(k)
			oracle.insert(k)
		}
	}

	liveKey := func() int64 { return oracle.rows[rng.Intn(len(oracle.rows))].key }
	const rounds = 6
	for round := 0; round < rounds; round++ {
		// Forced drift: pile inserts onto a hotspot that moves every round,
		// so each rebalance re-splits a different local region.
		hotspot = int64(round) * domain / rounds
		for i := 0; i < 1_200; i++ {
			k := (hotspot + rng.Int63n(domain/16)) % domain
			e.Insert(k)
			oracle.insert(k)
		}
		// Randomized mixed stream between drifts.
		for i := 0; i < 150; i++ {
			switch rng.Intn(4) {
			case 0:
				k := liveKey()
				if rng.Intn(8) == 0 {
					k = rng.Int63n(domain)
				}
				gotErr := e.Delete(k) != nil
				if wantErr := !oracle.delete(k); gotErr != wantErr {
					t.Fatalf("round %d: Delete(%d) error=%v, oracle absent=%v", round, k, gotErr, wantErr)
				}
			case 1:
				old, new := liveKey(), rng.Int63n(domain)
				gotErr := e.UpdateKey(old, new) != nil
				if wantErr := !oracle.update(old, new); gotErr != wantErr {
					t.Fatalf("round %d: UpdateKey(%d,%d) error=%v, oracle absent=%v", round, old, new, gotErr, wantErr)
				}
			default:
				k := rng.Int63n(domain)
				e.Insert(k)
				oracle.insert(k)
			}
		}

		if _, err := e.Rebalance(); err != nil {
			t.Fatalf("round %d: Rebalance: %v", round, err)
		}
		if got, want := e.Len(), len(oracle.rows); got != want {
			t.Fatalf("round %d: Len = %d, oracle %d", round, got, want)
		}
		got := sortKeys(engineCollectedKeys(e))
		want := sortKeys(oracleKeys(oracle))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: key multiset diverged (%d vs %d rows)", round, len(got), len(want))
		}
		assertPlacement(t, e)
	}
	if checked == 0 {
		t.Fatal("no rebalance exercised the rescan equivalence seam")
	}
	if stragglers == 0 {
		t.Fatal("no stragglers were produced; the equivalence check was vacuous")
	}
}

// engineCollectedKeys is engineKeys without the insertion-sort merge (the
// equivalence run holds an order of magnitude more rows).
func engineCollectedKeys(e *Engine) []int64 {
	var keys []int64
	for _, s := range e.shards {
		s.mu.RLock()
		tbl := s.tbl
		s.mu.RUnlock()
		if tbl != nil {
			keys = append(keys, tbl.Keys()...)
		}
	}
	return keys
}

// oracleKeys is the oracle's key multiset, unsorted.
func oracleKeys(o *sliceOracle) []int64 {
	keys := make([]int64, len(o.rows))
	for i, r := range o.rows {
		keys[i] = r.key
	}
	return keys
}
