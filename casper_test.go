package casper

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func testOptions(mode Mode) Options {
	return Options{
		Mode:        mode,
		PayloadCols: 3,
		ChunkValues: 1024,
		BlockBytes:  512, // 64 values per block
		GhostFrac:   0.01,
		Partitions:  8,
	}
}

func openTest(t *testing.T, mode Mode, n int) *Engine {
	t.Helper()
	keys := UniformKeys(n, int64(n)*10, 77)
	e, err := Open(keys, testOptions(mode))
	if err != nil {
		t.Fatalf("Open(%v): %v", mode, err)
	}
	return e
}

func TestOpenAllModes(t *testing.T) {
	for _, mode := range AllModes() {
		e := openTest(t, mode, 3000)
		if e.Len() != 3000 {
			t.Errorf("%v: Len = %d, want 3000", mode, e.Len())
		}
		if e.Mode() != mode {
			t.Errorf("Mode = %v, want %v", e.Mode(), mode)
		}
		if e.Chunks() < 2 {
			t.Errorf("%v: chunks = %d, want >= 2", mode, e.Chunks())
		}
	}
}

func TestOpenRejectsEmptyKeys(t *testing.T) {
	if _, err := Open(nil, testOptions(ModeCasper)); err == nil {
		t.Fatal("Open(nil) succeeded")
	}
}

func TestOpenRejectsInfeasibleSLA(t *testing.T) {
	keys := UniformKeys(100, 1000, 1)
	opts := testOptions(ModeCasper)
	opts.ReadSLA = 1 // below one random read
	if _, err := Open(keys, opts); err == nil {
		t.Fatal("infeasible read SLA accepted")
	}
	opts = testOptions(ModeCasper)
	opts.UpdateSLA = 1
	if _, err := Open(keys, opts); err == nil {
		t.Fatal("infeasible update SLA accepted")
	}
}

func TestEndToEndCasperFlow(t *testing.T) {
	keys := UniformKeys(4000, 40_000, 5)
	e, err := Open(keys, testOptions(ModeCasper))
	if err != nil {
		t.Fatal(err)
	}
	sample, err := PresetWorkload(HybridSkewed, keys, 40_000, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(sample, 2); err != nil {
		t.Fatal(err)
	}
	if len(e.Layouts()) == 0 {
		t.Fatal("no layouts after training")
	}
	// Execute the sample; spot check against a second engine in a
	// baseline mode.
	ref, err := Open(keys, testOptions(ModeSorted))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range sample {
		if got, want := e.Execute(op), ref.Execute(op); got != want {
			t.Fatalf("op %d (%+v): casper=%d sorted=%d", i, op, got, want)
		}
	}
}

func TestQueriesAndWrites(t *testing.T) {
	keys := []int64{10, 20, 20, 30, 40, 50}
	e, err := Open(keys, Options{Mode: ModeCasper, PayloadCols: 2, ChunkValues: 100, BlockBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PointQuery(20); got != 2 {
		t.Errorf("PointQuery(20) = %d, want 2", got)
	}
	if got := e.RangeCount(15, 45); got != 4 {
		t.Errorf("RangeCount = %d, want 4", got)
	}
	if got := e.RangeSum(15, 45); got != 110 {
		t.Errorf("RangeSum = %d, want 110", got)
	}
	e.Insert(25)
	if got := e.PointQuery(25); got != 1 {
		t.Errorf("PointQuery(25) = %d, want 1", got)
	}
	if err := e.Delete(25); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(25); err == nil {
		t.Error("double delete succeeded")
	}
	if err := e.UpdateKey(10, 35); err != nil {
		t.Fatal(err)
	}
	if e.PointQuery(10) != 0 || e.PointQuery(35) != 1 {
		t.Error("update not applied")
	}
}

func TestMultiRangeSumPublic(t *testing.T) {
	keys := make([]int64, 50)
	for i := range keys {
		keys[i] = int64(i)
	}
	gen := func(key int64, col int) int32 {
		if col == 0 {
			return int32(key % 5)
		}
		return 1
	}
	e, err := Open(keys, Options{Mode: ModeCasper, PayloadCols: 2, ChunkValues: 100, BlockBytes: 64, PayloadGen: gen})
	if err != nil {
		t.Fatal(err)
	}
	// Keys 0..49, filter key%5 == 0 (via [0,0]): 10 rows, each summing 1.
	got := e.MultiRangeSum(0, 49, []Filter{{Col: 0, Lo: 0, Hi: 0}}, 1)
	if got != 10 {
		t.Errorf("MultiRangeSum = %d, want 10", got)
	}
}

func TestTransactionsCommitAndConflict(t *testing.T) {
	e := openTest(t, ModeCasper, 1000)
	key := int64(123456) // absent

	tx := e.Begin()
	if ok, _ := tx.Exists(key); ok {
		t.Fatal("absent key reported present")
	}
	if err := tx.Insert(key); err != nil {
		t.Fatal(err)
	}
	if ok, _ := tx.Exists(key); !ok {
		t.Fatal("own insert invisible")
	}
	// Not yet visible outside.
	if e.PointQuery(key) != 0 {
		t.Fatal("uncommitted insert visible in storage")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if e.PointQuery(key) != 1 {
		t.Fatal("committed insert not applied to storage")
	}

	// Write-write conflict: two transactions delete the same row.
	a, b := e.Begin(), e.Begin()
	if err := a.Delete(key); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(key); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err == nil {
		t.Fatal("second committer should conflict")
	}
	if e.PointQuery(key) != 0 {
		t.Fatal("row should be deleted exactly once")
	}
}

func TestTransactionDeleteAbsent(t *testing.T) {
	e := openTest(t, ModeCasper, 500)
	tx := e.Begin()
	if err := tx.Delete(999_999_999); err == nil {
		t.Fatal("delete of absent key accepted")
	}
}

func TestTransactionAbortDiscards(t *testing.T) {
	e := openTest(t, ModeCasper, 500)
	tx := e.Begin()
	if err := tx.Insert(888_888); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after abort accepted")
	}
	if e.PointQuery(888_888) != 0 {
		t.Fatal("aborted insert leaked into storage")
	}
}

func TestTransactionUpdateCarriesPayload(t *testing.T) {
	keys := []int64{100, 200, 300}
	e, err := Open(keys, Options{Mode: ModeCasper, PayloadCols: 1, ChunkValues: 100, BlockBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, ok := e.Payload(200, 0)
	if !ok {
		t.Fatal("payload missing")
	}
	tx := e.Begin()
	if err := tx.Update(200, 250); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, ok := e.Payload(250, 0)
	if !ok || got != want {
		t.Fatalf("payload after txn update = %d,%v, want %d", got, ok, want)
	}
}

func TestPresetWorkloadUnknown(t *testing.T) {
	if _, err := PresetWorkload("bogus", []int64{1}, 10, 5, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestShiftWorkloadRotates(t *testing.T) {
	ops := []Op{
		{Kind: PointQuery, Key: 90},
		{Kind: RangeSum, Key: 10, Key2: 20},
		{Kind: Update, Key: 5, Key2: 50},
	}
	shifted := ShiftWorkload(ops, 99, 0.2) // shift by 20
	if shifted[0].Key != 10 {              // 90+20 wraps to 10
		t.Errorf("point key = %d, want 10", shifted[0].Key)
	}
	if shifted[1].Key != 30 || shifted[1].Key2 != 40 {
		t.Errorf("range = [%d,%d], want [30,40]", shifted[1].Key, shifted[1].Key2)
	}
	if shifted[2].Key != 25 || shifted[2].Key2 != 50 {
		t.Errorf("update = %+v, want Key 25 Key2 50", shifted[2])
	}
	if len(ShiftWorkload(nil, 99, 0.5)) != 0 {
		t.Error("nil ops should shift to empty")
	}
}

func TestSortKeys(t *testing.T) {
	got := SortKeys([]int64{3, 1, 2})
	for i, want := range []int64{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("SortKeys = %v", got)
		}
	}
}

func TestExecuteParallelPublic(t *testing.T) {
	e := openTest(t, ModeCasper, 2000)
	var ops []Op
	for i := 0; i < 500; i++ {
		ops = append(ops, Op{Kind: PointQuery, Key: int64(i * 37)})
	}
	if s, p := e.ExecuteAll(ops), e.ExecuteParallel(ops, 4); s != p {
		t.Fatalf("serial %d != parallel %d", s, p)
	}
}

func TestDeleteReturnsNotFoundError(t *testing.T) {
	e := openTest(t, ModeSorted, 100)
	err := e.Delete(987_654_321)
	if err == nil {
		t.Fatal("expected error")
	}
	var dummy error = err
	_ = errors.Unwrap(dummy) // must be a wrapped, inspectable error
}

func TestShardedEngineMatchesSingleTable(t *testing.T) {
	keys := UniformKeys(5_000, 50_000, 77)
	single, err := Open(keys, testOptions(ModeCasper))
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(ModeCasper)
	opts.Shards = 8
	sharded, err := Open(keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if single.Shards() != 1 || sharded.Shards() != 8 {
		t.Fatalf("shard counts = %d, %d", single.Shards(), sharded.Shards())
	}
	sample, err := PresetWorkload(HybridSkewed, keys, 50_000, 1_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Engine{single, sharded} {
		if err := e.Train(sample, 2); err != nil {
			t.Fatal(err)
		}
	}
	ops, err := PresetWorkload(HybridSkewed, keys, 50_000, 1_000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := single.ExecuteAll(ops), sharded.ExecuteAll(ops); s != p {
		t.Fatalf("single sink %d != sharded sink %d", s, p)
	}
	if s, p := single.Len(), sharded.Len(); s != p {
		t.Fatalf("single Len %d != sharded Len %d", s, p)
	}
	for k := int64(0); k < 50_000; k += 509 {
		if s, p := single.PointQuery(k), sharded.PointQuery(k); s != p {
			t.Fatalf("PointQuery(%d): single %d != sharded %d", k, s, p)
		}
	}
	if s, p := single.RangeSum(1_000, 40_000), sharded.RangeSum(1_000, 40_000); s != p {
		t.Fatalf("RangeSum: single %d != sharded %d", s, p)
	}
	if got := len(sharded.Layouts()); got == 0 {
		t.Error("sharded Layouts empty")
	}
}

func TestApplyBatchPublic(t *testing.T) {
	opts := testOptions(ModeCasper)
	opts.Shards = 4
	keys := UniformKeys(2_000, 20_000, 77)
	e, err := Open(keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	var batch []Op
	for i := 0; i < 256; i++ {
		batch = append(batch, Op{Kind: Insert, Key: int64(100_000 + i)})
	}
	before := e.Len()
	if sink := e.ApplyBatch(batch); sink != int64(len(batch)) {
		t.Fatalf("batch sink = %d, want %d", sink, len(batch))
	}
	if got, want := e.Len(), before+len(batch); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	p := e.ApplyBatchAsync(batch)
	if sink := p.Wait(); sink != int64(len(batch)) {
		t.Fatalf("async batch sink = %d, want %d", sink, len(batch))
	}
}

func TestAutoRetrainPublic(t *testing.T) {
	opts := testOptions(ModeCasper)
	opts.Shards = 2
	keys := UniformKeys(4_000, 40_000, 77)
	e, err := Open(keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartAutoRetrain(RetrainPolicy{}); err != nil {
		t.Fatal(err)
	}
	if err := e.StartAutoRetrain(RetrainPolicy{}); err == nil {
		t.Error("second StartAutoRetrain should error")
	}
	e.StopAutoRetrain()
	e.StopAutoRetrain() // idempotent
	e.Close()

	sorted := openTest(t, ModeSorted, 100)
	if err := sorted.StartAutoRetrain(RetrainPolicy{}); err == nil {
		t.Error("auto-retrain on non-Casper mode should error")
	}
}

// TestViewAndEpochAcrossShards exercises the public snapshot surface: a
// cross-shard UpdateKey advances the engine epoch exactly once, a View pins
// the moved row at exactly one of its two keys, and transaction commits
// share the same epoch domain.
func TestViewAndEpochAcrossShards(t *testing.T) {
	keys := UniformKeys(2_000, 100_000, 4)
	opts := testOptions(ModeCasper)
	opts.Shards = 4
	eng, err := Open(keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh key pair on different shards.
	part := eng.sh.Partitioner()
	old := int64(200_001)
	new := old + 1
	for part.Shard(new) == part.Shard(old) {
		new++
	}
	eng.Insert(old)

	before := eng.Epoch()
	if err := eng.UpdateKey(old, new); err != nil {
		t.Fatal(err)
	}
	if after := eng.Epoch(); after != before+1 {
		t.Fatalf("cross-shard move bumped epoch %d -> %d, want exactly one bump", before, after)
	}
	eng.View(func(v *View) {
		if got := v.PointQuery(old) + v.PointQuery(new); got != 1 {
			t.Errorf("view sees the moved row %d times, want 1", got)
		}
		if v.Epoch() != eng.sh.Epoch() {
			t.Errorf("view epoch %d != engine epoch %d", v.Epoch(), eng.sh.Epoch())
		}
		if got, want := v.Len(), eng.sh.Len(); got != want {
			t.Errorf("view Len = %d, want %d", got, want)
		}
		filters := []Filter{{Col: 0, Lo: -1 << 30, Hi: 1 << 30}}
		if got, want := v.MultiRangeSum(0, 100_000, filters, 1), eng.MultiRangeSum(0, 100_000, filters, 1); got != want {
			t.Errorf("view MultiRangeSum = %d, want %d", got, want)
		}
	})

	// Transaction commits draw from the same epoch domain as moves.
	preCommit := eng.Epoch()
	tx := eng.Begin()
	if err := tx.Insert(300_000); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Epoch(); got <= preCommit {
		t.Errorf("commit did not advance the shared epoch: %d -> %d", preCommit, got)
	}
}

// TestDurableOpenRecoversThroughPublicAPI drives durability end to end
// through the exported surface: bootstrap a durable engine, mutate it,
// reopen the directory, and observe identical query results — including
// after transactions and cross-shard updates that exercise the shared
// epoch oracle.
func TestDurableOpenRecoversThroughPublicAPI(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(ModeCasper)
	opts.Shards = 4
	opts.Dir = dir
	opts.Sync = SyncModeAlways

	keys := UniformKeys(2000, 20000, 9)
	e, err := Open(keys, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e.Insert(555_555)
	e.Insert(555_555)
	if err := e.Delete(keys[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := e.UpdateKey(keys[1], 777_777); err != nil {
		t.Fatalf("UpdateKey: %v", err)
	}
	tx := e.Begin()
	if err := tx.Insert(888_888); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	wantLen := e.Len()
	wantSum := e.RangeSum(0, 1_000_000)
	wantEpoch := e.Epoch()
	e.Close()

	// Recovery ignores the key argument when the directory has state.
	re, err := Open(nil, opts)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer re.Close()
	if got := re.Len(); got != wantLen {
		t.Fatalf("recovered Len = %d, want %d", got, wantLen)
	}
	if got := re.RangeSum(0, 1_000_000); got != wantSum {
		t.Fatalf("recovered RangeSum = %d, want %d", got, wantSum)
	}
	if got := re.PointQuery(555_555); got != 2 {
		t.Fatalf("recovered PointQuery(555555) = %d, want 2", got)
	}
	if got := re.PointQuery(777_777); got != 1 {
		t.Fatalf("recovered PointQuery(777777) = %d, want 1", got)
	}
	if got := re.PointQuery(888_888); got != 1 {
		t.Fatalf("recovered txn insert invisible")
	}
	if re.Epoch() < wantEpoch {
		t.Fatalf("recovered epoch %d regressed below %d", re.Epoch(), wantEpoch)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after recovery: %v", err)
	}
	if pend := re.PendingMoves(); len(pend) != 0 {
		t.Fatalf("idle engine reports pending moves: %+v", pend)
	}
}

// TestRebalancePublicAPI drives drift-triggered shard rebalancing through
// the public surface: a range-sharded engine whose write distribution drifts
// to one end of the key range must report growing skew, rebalance below the
// 1.5x acceptance threshold (manually and via the auto worker), and keep
// every row queryable with its payload intact.
func TestRebalancePublicAPI(t *testing.T) {
	opts := testOptions(ModeCasper)
	opts.Shards = 4
	opts.ShardByRange = true
	keys := UniformKeys(4_000, 40_000, 7)
	e, err := Open(keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Hash-partitioned engines refuse to rebalance.
	h, err := Open(keys, func() Options { o := testOptions(ModeCasper); o.Shards = 4; return o }())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Rebalance(); err == nil {
		t.Error("Rebalance on a hash-sharded engine should error")
	}

	// Drift: pile writes past the top of the loaded range.
	for i := 0; i < 3_000; i++ {
		e.Insert(40_001 + int64(i))
	}
	if got := e.ShardSkew(); got < 1.5 {
		t.Fatalf("drift produced skew %.2f, want >= 1.5", got)
	}
	if counts := e.ShardRowCounts(); len(counts) != 4 {
		t.Fatalf("ShardRowCounts returned %d shards", len(counts))
	}
	wantLen := e.Len()
	wantSum := e.RangeSum(0, 100_000)

	res, err := e.Rebalance()
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if res.Moved == 0 || res.SkewAfter >= 1.5 {
		t.Fatalf("rebalance moved %d rows, skew %.2f -> %.2f; want movement and < 1.5",
			res.Moved, res.SkewBefore, res.SkewAfter)
	}
	if got := e.Len(); got != wantLen {
		t.Fatalf("Len changed across rebalance: %d -> %d", wantLen, got)
	}
	if got := e.RangeSum(0, 100_000); got != wantSum {
		t.Fatalf("RangeSum changed across rebalance: %d -> %d", wantSum, got)
	}
	for i := 0; i < 3_000; i += 211 {
		k := 40_001 + int64(i)
		if got := e.PointQuery(k); got != 1 {
			t.Fatalf("PointQuery(%d) = %d after rebalance", k, got)
		}
	}
	if got := e.Rebalances(); got != 1 {
		t.Fatalf("Rebalances = %d, want 1", got)
	}
	// The minimal default left the repaired fleet alone; a quantile re-split
	// of every boundary goes through RebalanceTo.
	if res, err := e.Rebalance(); err != nil || res.Moved != 0 {
		t.Fatalf("repeat minimal rebalance: moved %d, err %v; want a no-op", res.Moved, err)
	}
	live := slices.Clone(keys)
	for i := 0; i < 3_000; i++ {
		live = append(live, 40_001+int64(i))
	}
	slices.Sort(live)
	if _, err := e.RebalanceTo([]int64{live[len(live)/4], live[len(live)/2], live[3*len(live)/4]}); err != nil {
		t.Fatalf("quantile RebalanceTo: %v", err)
	}
	if got := e.ShardSkew(); got >= 1.5 {
		t.Fatalf("skew %.2f after quantile rebalance", got)
	}

	// Auto mode: a second drift burst under the background worker.
	base := e.Rebalances()
	if err := e.StartAutoRebalance(RebalancePolicy{CheckEvery: 5 * time.Millisecond, MinRows: 100, MinOps: 8}); err != nil {
		t.Fatal(err)
	}
	defer e.StopAutoRebalance()
	for i := 0; i < 4_000; i++ {
		e.Insert(50_001 + int64(i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Rebalances() == base && time.Now().Before(deadline) {
		e.Insert(50_001 + int64(time.Now().UnixNano()%4_000))
		time.Sleep(time.Millisecond)
	}
	if e.Rebalances() == base {
		t.Fatalf("auto-rebalance never triggered (skew %.2f)", e.ShardSkew())
	}
	// The worker may have fired mid-burst (slow inserts under -race), leaving
	// the tail of the burst for a later tick — which its write-rate gate only
	// takes while the engine keeps absorbing writes.
	for e.ShardSkew() >= 1.5 && time.Now().Before(deadline) {
		e.Insert(50_001 + int64(time.Now().UnixNano()%4_000))
		time.Sleep(time.Millisecond)
	}
	if got := e.ShardSkew(); got >= 1.5 {
		t.Fatalf("skew %.2f after auto-rebalance, want < 1.5", got)
	}
}
