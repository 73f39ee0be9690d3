package shard

// Rebalance suite: drift-triggered boundary re-splitting. The centerpiece is
// an oracle-twin property test — a random Insert/Delete/UpdateKey stream
// interleaved with forced rebalances, checked query-by-query against a plain
// slice oracle (the in-memory analogue of the kill/replay shadow twin) —
// plus unit coverage for skew detection, boundary proposals, validation, and
// the auto-rebalance worker.

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"casper/internal/table"
	"casper/internal/workload"
)

// assertPlacement fails the test when any row sits on a shard that does not
// own its key under the current partitioner.
func assertPlacement(t *testing.T, e *Engine) {
	t.Helper()
	p := e.loadPart()
	for i, s := range e.shards {
		s.mu.RLock()
		tbl := s.tbl
		s.mu.RUnlock()
		if tbl == nil {
			continue
		}
		for _, k := range tbl.Keys() {
			if p.Shard(k) != i {
				t.Fatalf("key %d physically on shard %d, owned by shard %d", k, i, p.Shard(k))
			}
		}
	}
}

// engineKeys returns the multiset of live keys across the fleet, sorted.
func engineKeys(e *Engine) []int64 {
	var keys []int64
	for _, s := range e.shards {
		s.mu.RLock()
		tbl := s.tbl
		s.mu.RUnlock()
		if tbl != nil {
			keys = append(keys, tbl.Keys()...)
		}
	}
	// Keys() is per-shard sorted; merge by full sort for the comparison.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func rebalanceConfig() Config {
	return Config{
		Shards:  4,
		ByRange: true,
		Table: table.Config{
			Mode:        table.Casper,
			PayloadCols: 3,
			ChunkValues: 256,
			GhostFrac:   0.01,
			Partitions:  4,
		},
	}
}

func TestRebalanceReducesSkewAfterDrift(t *testing.T) {
	keys := workload.UniformKeys(4_000, 100_000, 3)
	e, err := New(keys, rebalanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Drift: the write distribution slides past the top of the loaded range,
	// piling everything onto the last shard.
	for i := 0; i < 3_000; i++ {
		e.Insert(100_001 + int64(i))
	}
	before := e.Skew()
	if before < 1.5 {
		t.Fatalf("drift did not skew the fleet: skew = %.2f", before)
	}
	wantLen := e.Len()
	res, err := e.Rebalance()
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if res.Moved == 0 {
		t.Fatal("rebalance moved no rows despite skew")
	}
	if res.SkewAfter >= 1.5 {
		t.Fatalf("skew after rebalance = %.2f, want < 1.5 (before %.2f)", res.SkewAfter, res.SkewBefore)
	}
	if got := e.Len(); got != wantLen {
		t.Fatalf("Len changed across rebalance: %d -> %d", wantLen, got)
	}
	if got := e.Rebalances(); got != 1 {
		t.Fatalf("Rebalances = %d, want 1", got)
	}
	assertPlacement(t, e)
	// Every drifted row is still findable with its payload intact.
	for i := 0; i < 3_000; i += 97 {
		k := 100_001 + int64(i)
		if got := e.PointQuery(k); got != 1 {
			t.Fatalf("PointQuery(%d) = %d after rebalance, want 1", k, got)
		}
		if v, ok := e.Payload(k, 1); !ok || v != table.DefaultPayload(k, 1) {
			t.Fatalf("Payload(%d) = (%d,%v) after rebalance", k, v, ok)
		}
	}
	// A second rebalance with no further drift is a near no-op.
	res2, err := e.Rebalance()
	if err != nil {
		t.Fatalf("second Rebalance: %v", err)
	}
	if res2.SkewAfter >= 1.5 {
		t.Fatalf("second rebalance left skew %.2f", res2.SkewAfter)
	}
}

func TestRebalanceValidation(t *testing.T) {
	keys := workload.UniformKeys(500, 10_000, 1)
	hash, err := New(keys, Config{Shards: 4, Table: rebalanceConfig().Table})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hash.Rebalance(); err == nil {
		t.Error("Rebalance on a hash-partitioned engine should error")
	}
	if _, err := hash.RebalanceTo([]int64{1, 2, 3}); err == nil {
		t.Error("RebalanceTo on a hash-partitioned engine should error")
	}
	if err := hash.StartAutoRebalance(RebalancePolicy{}); err == nil {
		t.Error("StartAutoRebalance on a hash-partitioned engine should error")
	}

	rng, err := New(keys, rebalanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rng.RebalanceTo([]int64{1, 2}); err == nil {
		t.Error("RebalanceTo with too few bounds should error")
	}
	if _, err := rng.RebalanceTo([]int64{5, 5, 9}); err == nil {
		t.Error("RebalanceTo with duplicate bounds should error")
	}
	if _, err := rng.RebalanceTo([]int64{9, 5, 20}); err == nil {
		t.Error("RebalanceTo with unsorted bounds should error")
	}
	if _, err := rng.RebalanceTo([]int64{2_000, 4_000, 8_000}); err != nil {
		t.Errorf("valid RebalanceTo: %v", err)
	}
	assertPlacement(t, rng)
}

// proposeBounds is the exhaustive quantile re-split the suites use as the
// heavy-migration reference next to the minimal proposer: exactly n-1
// strictly increasing boundaries splitting keys (any order) evenly across n
// shards. NewRangePartitioner collapses ties and may yield fewer shards, but
// a rebalance keeps the shard count, so the quantile bounds are padded with
// synthetic boundaries (the extra shards own empty ranges).
func proposeBounds(keys []int64, n int) []int64 {
	return padBounds(NewRangePartitioner(keys, n).Bounds(), max(n, 1))
}

// padBounds extends a strictly increasing boundary set to exactly n-1
// entries, preferring successors past the current maximum, then predecessors
// below the current minimum, then interior gaps — total for every input the
// int64 domain can accommodate (n-1 distinct values always fit).
func padBounds(bounds []int64, n int) []int64 {
	need := n - 1
	for len(bounds) < need {
		if len(bounds) == 0 {
			bounds = append(bounds, 0)
			continue
		}
		if last := bounds[len(bounds)-1]; last < math.MaxInt64 {
			bounds = append(bounds, last+1)
			continue
		}
		if first := bounds[0]; first > math.MinInt64 {
			bounds = append([]int64{first - 1}, bounds...)
			continue
		}
		// Both extremes taken: split the first interior gap. bounds[i]+1
		// cannot overflow because bounds[i] < bounds[i+1].
		inserted := false
		for i := 0; i+1 < len(bounds); i++ {
			if bounds[i+1] > bounds[i]+1 {
				bounds = append(bounds[:i+1], append([]int64{bounds[i] + 1}, bounds[i+1:]...)...)
				inserted = true
				break
			}
		}
		if !inserted {
			break // the whole int64 domain is a boundary; nothing left to add
		}
	}
	return bounds
}

// rebalanceQuantile re-splits every boundary on the global quantiles of the
// live keys — the heavy-migration workload the suites drive through
// RebalanceTo.
func rebalanceQuantile(e *Engine) (RebalanceResult, error) {
	return e.RebalanceTo(proposeBounds(e.liveKeys(), e.Shards()))
}

func TestProposeBoundsPadding(t *testing.T) {
	cases := []struct {
		name string
		keys []int64
		n    int
	}{
		{"no keys", nil, 4},
		{"one key", []int64{42}, 8},
		{"all duplicates", []int64{7, 7, 7, 7, 7, 7}, 4},
		{"fewer distinct than shards", []int64{1, 1, 2, 2}, 6},
		{"max extreme", []int64{math.MaxInt64, math.MaxInt64}, 4},
		{"min extreme", []int64{math.MinInt64, math.MinInt64}, 4},
		{"both extremes", []int64{math.MinInt64, math.MaxInt64}, 5},
		{"plenty", workload.UniformKeys(1_000, 1_000_000, 9), 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := proposeBounds(tc.keys, tc.n)
			if len(b) != tc.n-1 {
				t.Fatalf("proposeBounds returned %d bounds, want %d", len(b), tc.n-1)
			}
			for i := 1; i < len(b); i++ {
				if b[i] <= b[i-1] {
					t.Fatalf("bounds not strictly increasing: %v", b)
				}
			}
			if got := RangePartitionerFromBounds(b).Shards(); got != tc.n {
				t.Fatalf("partitioner shards = %d, want %d", got, tc.n)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Oracle-twin property test
// ---------------------------------------------------------------------------

// unknownOrigin marks an oracle row whose payload identity became ambiguous:
// a delete or update removed one of several duplicates carrying different
// payloads, and the engine's choice of victim is internal. Count-shaped
// observables stay exact; payload probes skip such rows.
const unknownOrigin = math.MinInt64

// oracleRow is one live row in the slice oracle: its current key plus the
// key it was originally inserted at, which determines its payload
// (table.DefaultPayload(origin, col) — UpdateKey preserves payloads).
type oracleRow struct{ key, origin int64 }

// sliceOracle is the plain-slice model the engine is checked against
// query-by-query: a multiset of rows with engine-equivalent Insert, Delete,
// and UpdateKey semantics.
type sliceOracle struct{ rows []oracleRow }

func (o *sliceOracle) count(k int64) int {
	n := 0
	for _, r := range o.rows {
		if r.key == k {
			n++
		}
	}
	return n
}

func (o *sliceOracle) rangeCount(lo, hi int64) int {
	n := 0
	for _, r := range o.rows {
		if lo <= r.key && r.key <= hi {
			n++
		}
	}
	return n
}

func (o *sliceOracle) rangeSum(lo, hi int64) int64 {
	var sum int64
	for _, r := range o.rows {
		if lo <= r.key && r.key <= hi {
			sum += r.key
		}
	}
	return sum
}

func (o *sliceOracle) insert(k int64) { o.rows = append(o.rows, oracleRow{key: k, origin: k}) }

// takeOne removes one row with key k, mirroring the engine's free choice of
// victim among duplicates: when the duplicates disagree on payload, every
// survivor's payload identity becomes unknown. Returns the removed row's
// origin and whether a row existed.
func (o *sliceOracle) takeOne(k int64) (int64, bool) {
	first, n := -1, 0
	ambiguous := false
	for i, r := range o.rows {
		if r.key != k {
			continue
		}
		if n == 0 {
			first = i
		} else if r.origin != o.rows[first].origin {
			ambiguous = true
		}
		n++
	}
	if n == 0 {
		return 0, false
	}
	origin := o.rows[first].origin
	if ambiguous {
		origin = unknownOrigin
		for i := range o.rows {
			if o.rows[i].key == k {
				o.rows[i].origin = unknownOrigin
			}
		}
	}
	o.rows[first] = o.rows[len(o.rows)-1]
	o.rows = o.rows[:len(o.rows)-1]
	return origin, true
}

func (o *sliceOracle) delete(k int64) bool { _, ok := o.takeOne(k); return ok }

func (o *sliceOracle) update(old, new int64) bool {
	origin, ok := o.takeOne(old)
	if !ok {
		return false
	}
	o.rows = append(o.rows, oracleRow{key: new, origin: origin})
	return true
}

func (o *sliceOracle) keysSorted() []int64 {
	keys := make([]int64, len(o.rows))
	for i, r := range o.rows {
		keys[i] = r.key
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// payloadOrigin returns the origin of the unique row with key k, or ok=false
// when the key is absent, duplicated, or payload-ambiguous.
func (o *sliceOracle) payloadOrigin(k int64) (int64, bool) {
	origin, n := int64(0), 0
	for _, r := range o.rows {
		if r.key == k {
			origin = r.origin
			n++
		}
	}
	return origin, n == 1 && origin != unknownOrigin
}

// TestRebalanceOracleTwin is the oracle-twin property suite: a random
// Insert/Delete/UpdateKey stream whose insert distribution drifts across the
// domain, interleaved with forced rebalances (both proposal-driven and
// explicit adversarial boundary sets), checked query-by-query against the
// slice oracle. After every rebalance the full key multiset, row placement,
// and query observables must agree.
func TestRebalanceOracleTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	initial := workload.UniformKeys(1_500, 1<<20, 5)
	e, err := New(initial, rebalanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := &sliceOracle{}
	for _, k := range initial {
		oracle.insert(k)
	}

	const domain = int64(1 << 20)
	randKey := func(step int) int64 {
		if rng.Intn(10) < 3 {
			return int64(rng.Intn(16)) // hot duplicates
		}
		// Drift: the insert center slides across the domain with the stream.
		center := int64(step) * domain / 1_200
		k := center + rng.Int63n(domain/8) - domain/16
		if k < 0 {
			k = -k
		}
		return k % domain
	}
	liveKey := func() int64 {
		if len(oracle.rows) == 0 {
			return rng.Int63n(domain)
		}
		return oracle.rows[rng.Intn(len(oracle.rows))].key
	}

	probe := func(step int, touched ...int64) {
		t.Helper()
		if got, want := e.Len(), len(oracle.rows); got != want {
			t.Fatalf("step %d: Len = %d, oracle %d", step, got, want)
		}
		keys := append(touched, liveKey(), rng.Int63n(domain), int64(rng.Intn(16)))
		for _, k := range keys {
			if got, want := e.PointQuery(k), oracle.count(k); got != want {
				t.Fatalf("step %d: PointQuery(%d) = %d, oracle %d", step, k, got, want)
			}
		}
		if step%8 == 0 {
			lo := rng.Int63n(domain)
			hi := lo + rng.Int63n(domain/4)
			if got, want := e.RangeCount(lo, hi), oracle.rangeCount(lo, hi); got != want {
				t.Fatalf("step %d: RangeCount(%d,%d) = %d, oracle %d", step, lo, hi, got, want)
			}
			if got, want := e.RangeSum(lo, hi), oracle.rangeSum(lo, hi); got != want {
				t.Fatalf("step %d: RangeSum(%d,%d) = %d, oracle %d", step, lo, hi, got, want)
			}
		}
		if k := liveKey(); true {
			if origin, ok := oracle.payloadOrigin(k); ok {
				want := table.DefaultPayload(origin, 1)
				if v, vok := e.Payload(k, 1); !vok || v != want {
					t.Fatalf("step %d: Payload(%d,1) = (%d,%v), oracle (%d,true)", step, k, v, vok, want)
				}
			}
		}
	}

	deepCompare := func(step int) {
		t.Helper()
		got, want := engineKeys(e), oracle.keysSorted()
		if len(got) != len(want) {
			t.Fatalf("step %d: engine holds %d rows, oracle %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: key multiset diverged at ordinal %d: %d vs %d", step, i, got[i], want[i])
			}
		}
		assertPlacement(t, e)
	}

	const steps = 1_000
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(10); {
		case r < 5: // insert, drifting
			k := randKey(step)
			e.Insert(k)
			oracle.insert(k)
			probe(step, k)
		case r < 7: // delete
			k := liveKey()
			if rng.Intn(8) == 0 {
				k = rng.Int63n(domain) // sometimes absent
			}
			gotErr := e.Delete(k) != nil
			wantErr := !oracle.delete(k)
			if gotErr != wantErr {
				t.Fatalf("step %d: Delete(%d) error = %v, oracle absent = %v", step, k, gotErr, wantErr)
			}
			probe(step, k)
		default: // update, possibly cross-shard
			old, new := liveKey(), randKey(step)
			gotErr := e.UpdateKey(old, new) != nil
			wantErr := !oracle.update(old, new)
			if gotErr != wantErr {
				t.Fatalf("step %d: UpdateKey(%d,%d) error = %v, oracle absent = %v", step, old, new, gotErr, wantErr)
			}
			probe(step, old, new)
		}

		if step%200 == 99 {
			// Adversarial explicit bounds: cram everything onto shard 0,
			// then let the proposal-driven rebalance below repair it.
			if _, err := e.RebalanceTo([]int64{domain + 1, domain + 2, domain + 3}); err != nil {
				t.Fatalf("step %d: RebalanceTo: %v", step, err)
			}
			deepCompare(step)
			if counts := e.RowCounts(); counts[0] != len(oracle.rows) {
				t.Fatalf("step %d: adversarial bounds left %d of %d rows on shard 0", step, counts[0], len(oracle.rows))
			}
		}
		if step%40 == 39 {
			res, err := e.Rebalance()
			if err != nil {
				t.Fatalf("step %d: Rebalance: %v", step, err)
			}
			deepCompare(step)
			if len(oracle.rows) >= 1_000 && res.SkewAfter >= 1.5 {
				t.Fatalf("step %d: skew %.2f after rebalance of %d rows", step, res.SkewAfter, len(oracle.rows))
			}
		}
	}
	deepCompare(steps)
	if e.Rebalances() == 0 {
		t.Fatal("property run performed no rebalances")
	}
}

// TestRebalanceWaitsForStagedMove: a rebalance must not install new
// boundaries while a cross-shard move is staged (the move's WAL records and
// checkpoint folding assume the staged row's routed owner is the shard it
// physically left). The move is parked between its two windows holding
// migrateMu; the rebalance must block on it until the move publishes, then
// complete.
func TestRebalanceWaitsForStagedMove(t *testing.T) {
	keys := workload.UniformKeys(2_000, 40_000, 17)
	e, err := New(keys, rebalanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh (absent) cross-shard pair inside the loaded domain (keys span
	// [0, 40000], so shard boundaries all sit below that).
	p := e.loadPart()
	a := int64(5_001)
	for e.PointQuery(a) != 0 {
		a++
	}
	b := a + 1
	for p.Shard(b) == p.Shard(a) || e.PointQuery(b) != 0 {
		b++
	}
	e.Insert(a)

	entered := make(chan struct{})
	release := make(chan struct{})
	var park sync.Once // the rebalance's own stage windows pass straight through
	e.afterStage = func() {
		park.Do(func() {
			close(entered)
			<-release
		})
	}
	moveDone := make(chan error, 1)
	go func() { moveDone <- e.UpdateKey(a, b) }()
	<-entered

	old := e.loadPart().(*RangePartitioner).Bounds()
	shifted := make([]int64, len(old))
	for i, v := range old {
		shifted[i] = v + 17
	}
	rebDone := make(chan struct{})
	go func() {
		if _, err := e.RebalanceTo(shifted); err != nil {
			t.Errorf("RebalanceTo: %v", err)
		}
		close(rebDone)
	}()

	select {
	case <-rebDone:
		t.Fatal("rebalance installed boundaries while a cross-shard move was staged")
	case <-time.After(100 * time.Millisecond):
	}
	// While both are in flight the staged row is still readable exactly once.
	if got := e.PointQuery(a); got != 1 {
		t.Fatalf("staged row: PointQuery(a) = %d, want 1", got)
	}

	close(release)
	if err := <-moveDone; err != nil {
		t.Fatalf("UpdateKey: %v", err)
	}
	select {
	case <-rebDone:
	case <-time.After(10 * time.Second):
		t.Fatal("rebalance never completed after the move drained")
	}
	if na, nb := e.PointQuery(a), e.PointQuery(b); na != 0 || nb != 1 {
		t.Fatalf("after move+rebalance: counts (%d,%d), want (0,1)", na, nb)
	}
	if !slices.Equal(e.loadPart().(*RangePartitioner).Bounds(), shifted) {
		t.Fatal("rebalance did not install the requested bounds")
	}
	assertPlacement(t, e)
}

// TestAutoRebalanceTriggers drives the background worker end to end: a
// drifted fleet absorbing writes must rebalance itself below the policy
// skew without manual intervention.
func TestAutoRebalanceTriggers(t *testing.T) {
	keys := workload.UniformKeys(2_000, 50_000, 11)
	e, err := New(keys, rebalanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Drift everything onto the top shard before the worker starts.
	for i := 0; i < 2_000; i++ {
		e.Insert(50_001 + int64(i))
	}
	if e.Skew() < 1.5 {
		t.Fatalf("setup produced skew %.2f, want >= 1.5", e.Skew())
	}
	if err := e.StartAutoRebalance(RebalancePolicy{
		CheckEvery: 5 * time.Millisecond,
		MaxSkew:    1.5,
		MinRows:    100,
		MinOps:     8,
	}); err != nil {
		t.Fatal(err)
	}
	defer e.StopAutoRebalance()
	if err := e.StartAutoRebalance(RebalancePolicy{}); err == nil {
		t.Error("second StartAutoRebalance should error")
	}
	// Feed the write-rate gate (monitors record only while a worker runs).
	deadline := time.Now().Add(10 * time.Second)
	for e.Rebalances() == 0 && time.Now().Before(deadline) {
		e.Insert(50_001 + rng64(time.Now().UnixNano())%2_000)
		time.Sleep(time.Millisecond)
	}
	if e.Rebalances() == 0 {
		t.Fatal("auto-rebalancer never triggered")
	}
	if got := e.Skew(); got >= 1.5 {
		t.Fatalf("skew after auto-rebalance = %.2f, want < 1.5", got)
	}
	assertPlacement(t, e)
}

// rng64 is a tiny splitmix step for non-correlated probe keys without
// sharing a rand.Rand across asserts.
func rng64(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	if v := int64(z ^ (z >> 31)); v < 0 {
		return -v
	} else {
		return v
	}
}
