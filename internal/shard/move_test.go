package shard

// White-box suite for cross-shard UpdateKey — a one-row migration — and the
// row-identity retrain journal: destination-failure rollback, waiting out an
// in-flight rebalance, WAL append errors, allocation cost, monitor recording
// discipline, and byte-identical journal replay with duplicate keys carrying
// different payloads.

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"casper/internal/table"
	"casper/internal/wal"
	"casper/internal/workload"
)

func moveTestConfig() table.Config {
	return table.Config{
		Mode:        table.Casper,
		PayloadCols: 4,
		ChunkValues: 1_024,
		GhostFrac:   0.01,
		Partitions:  8,
	}
}

// crossShardPair returns two fresh keys (absent from keys) owned by
// different shards.
func crossShardPair(t *testing.T, e *Engine, from int64) (int64, int64) {
	t.Helper()
	a := from
	b := a + 1
	for e.Partitioner().Shard(b) == e.Partitioner().Shard(a) {
		b++
	}
	return a, b
}

func stagedMoves(e *Engine) int {
	e.rlockAll()
	defer e.runlockAll()
	return e.loadRoute().moves.len()
}

// TestCrossShardInsertErrorPropagation regresses the swallowed-insert bug:
// when the destination shard rejects the publish half of a cross-shard
// move, UpdateKey must report the error and the row must be rolled back to
// the source shard — never silently lost.
func TestCrossShardInsertErrorPropagation(t *testing.T) {
	keys := make([]int64, 1_000)
	for i := range keys {
		keys[i] = int64(i)
	}
	e, err := New(keys, Config{Shards: 4, Table: moveTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	a, b := crossShardPair(t, e, 1_000_000)
	e.Insert(a)

	injected := errors.New("injected destination failure")
	e.failDestInsert = func(int, int64) error { return injected }
	uerr := e.UpdateKey(a, b)
	if !errors.Is(uerr, injected) {
		t.Fatalf("UpdateKey error = %v, want wrapped injected error", uerr)
	}
	if !strings.Contains(uerr.Error(), "destination insert") {
		t.Errorf("error %q does not name the failing half", uerr)
	}
	if got := e.PointQuery(a); got != 1 {
		t.Errorf("after failed move: PointQuery(old) = %d, want 1 (rolled back)", got)
	}
	if got := e.PointQuery(b); got != 0 {
		t.Errorf("after failed move: PointQuery(new) = %d, want 0", got)
	}
	if v, ok := e.Payload(a, 1); !ok || v != table.DefaultPayload(a, 1) {
		t.Errorf("after failed move: Payload(old, 1) = (%d,%v), want (%d,true)", v, ok, table.DefaultPayload(a, 1))
	}
	if got, want := e.Len(), len(keys)+1; got != want {
		t.Errorf("after failed move: Len = %d, want %d", got, want)
	}
	if got := stagedMoves(e); got != 0 {
		t.Errorf("after failed move: %d staged moves left in registry, want 0", got)
	}

	e.failDestInsert = nil
	if err := e.UpdateKey(a, b); err != nil {
		t.Fatalf("UpdateKey after clearing fault: %v", err)
	}
	if e.PointQuery(a) != 0 || e.PointQuery(b) != 1 {
		t.Errorf("after successful move: counts (%d,%d), want (0,1)", e.PointQuery(a), e.PointQuery(b))
	}
	if got := stagedMoves(e); got != 0 {
		t.Errorf("after successful move: %d staged moves left in registry, want 0", got)
	}
}

// TestMonitorRecordsOnlySuccessfulWrites regresses spurious drift triggers:
// deletes and updates of absent keys must not feed the per-shard monitors.
func TestMonitorRecordsOnlySuccessfulWrites(t *testing.T) {
	keys := make([]int64, 100)
	for i := range keys {
		keys[i] = int64(i)
	}
	e, err := New(keys, Config{Shards: 2, Table: moveTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	e.monOn.Add(1)
	defer e.monOn.Add(-1)

	recorded := func() int {
		sum := 0
		for _, s := range e.shards {
			since, _ := s.mon.stats()
			sum += since
		}
		return sum
	}

	base := recorded()
	if err := e.Delete(1_000_000); err == nil {
		t.Fatal("delete of absent key should error")
	}
	if got := recorded(); got != base {
		t.Errorf("failed delete recorded: monitor count %d, want %d", got, base)
	}
	if err := e.UpdateKey(1_000_001, 1_000_002); err == nil {
		t.Fatal("update of absent key should error")
	}
	a, b := crossShardPair(t, e, 2_000_000)
	if err := e.UpdateKey(a, b); err == nil {
		t.Fatal("cross-shard update of absent key should error")
	}
	if got := recorded(); got != base {
		t.Errorf("failed updates recorded: monitor count %d, want %d", got, base)
	}

	if err := e.Delete(5); err != nil {
		t.Fatalf("delete of resident key: %v", err)
	}
	afterDelete := recorded()
	if afterDelete <= base {
		t.Errorf("successful delete not recorded: monitor count %d, want > %d", afterDelete, base)
	}
	if err := e.UpdateKey(6, a); err != nil {
		t.Fatalf("update of resident key: %v", err)
	}
	if got := recorded(); got <= afterDelete {
		t.Errorf("successful update not recorded: monitor count %d, want > %d", got, afterDelete)
	}
}

// journalingOn reports whether a shadow retrain is journaling on s.
func journalingOn(s *shard) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.journaling
}

// TestJournalRowIdentityReplay regresses the delete-by-key replay bug: with
// two duplicates of one key carrying different payloads, a delete journaled
// mid-retrain must remove the same duplicate from the shadow that the live
// table dropped, leaving the swapped-in table byte-identical. Also checks
// the journal's epoch stamps are monotone in application order.
func TestJournalRowIdentityReplay(t *testing.T) {
	e, err := New([]int64{10, 20}, Config{Shards: 1, Table: moveTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// Two rows with key 10 whose payloads differ: the original (payload of
	// key 10) and the row moved up from key 20 (payload of key 20).
	if err := e.UpdateKey(20, 10); err != nil {
		t.Fatal(err)
	}

	// Hold a shadow retrain open while the journaled mutations land.
	s := e.shards[0]
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- e.retrainShard(0, func(*table.Table) error { <-gate; return nil }) }()
	for !journalingOn(s) {
		time.Sleep(time.Millisecond)
	}

	if err := e.Delete(10); err != nil {
		t.Fatal(err)
	}
	e.Insert(30)

	s.jmu.Lock()
	if len(s.journal) != 2 {
		s.jmu.Unlock()
		t.Fatalf("journal holds %d ops, want 2", len(s.journal))
	}
	del := s.journal[0]
	if del.Kind != wal.RecDelete || del.Key != 10 {
		s.jmu.Unlock()
		t.Fatalf("journal[0] = kind %d key %d, want RecDelete of 10", del.Kind, del.Key)
	}
	removed := append([]int32(nil), del.Row...)
	if len(removed) != 4 {
		s.jmu.Unlock()
		t.Fatalf("journaled delete carries %d payload cols, want 4", len(removed))
	}
	for i := 1; i < len(s.journal); i++ {
		if s.journal[i].Epoch < s.journal[i-1].Epoch {
			s.jmu.Unlock()
			t.Fatalf("journal epochs regress: %d after %d", s.journal[i].Epoch, s.journal[i-1].Epoch)
		}
	}
	s.jmu.Unlock()

	// The duplicate that survived on the live table is the one the journal
	// did not record as removed.
	want := table.DefaultPayload(10, 0)
	if removed[0] == want {
		want = table.DefaultPayload(20, 0) // payload moved up from key 20
	}
	liveV, ok := e.Payload(10, 0)
	if !ok || liveV != want {
		t.Fatalf("live survivor payload = (%d,%v), want (%d,true)", liveV, ok, want)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("retrain: %v", err)
	}
	if got := e.Retrains(); got != 1 {
		t.Fatalf("retrains = %d, want 1", got)
	}

	// After the swap the shadow must agree byte-for-byte with the live
	// state observed before it: same survivor duplicate, same row set.
	if got := e.PointQuery(10); got != 1 {
		t.Fatalf("after swap: PointQuery(10) = %d, want 1", got)
	}
	for c := 0; c < 4; c++ {
		wantC := want + int32(c) // DefaultPayload(k, c) = k + c
		if v, ok := e.Payload(10, c); !ok || v != wantC {
			t.Fatalf("after swap: Payload(10,%d) = (%d,%v), want (%d,true)", c, v, ok, wantC)
		}
	}
	if got := e.PointQuery(30); got != 1 {
		t.Fatalf("after swap: PointQuery(30) = %d, want 1 (journaled insert lost)", got)
	}
	if got := e.Len(); got != 2 {
		t.Fatalf("after swap: Len = %d, want 2", got)
	}
}

// TestMonitorSessionSharesTheRetrainerWindows: an explicit StartMonitor
// session and the background retrainer are two references on one op-log, so
// stopping either leaves the other recording; the session restarts the
// windows and StopMonitor is idempotent.
func TestMonitorSessionSharesTheRetrainerWindows(t *testing.T) {
	keys := make([]int64, 400)
	for i := range keys {
		keys[i] = int64(i)
	}
	e, err := New(keys, Config{Shards: 2, Table: moveTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if e.monitoring() || e.Monitored() != nil {
		t.Fatal("recording before any consumer asked for it")
	}
	if err := e.StartAutoRetrain(RetrainPolicy{CheckEvery: time.Hour}); err != nil {
		t.Fatal(err)
	}
	e.PointQuery(1)
	if e.Monitored() != nil {
		t.Fatal("retrainer alone must not look like an explicit session")
	}
	e.StartMonitor(64)
	e.StartMonitor(64) // idempotent: still one reference
	e.PointQuery(2)
	if got := len(e.Monitored()); got != 1 {
		t.Fatalf("session holds %d ops, want 1 (windows restart at StartMonitor)", got)
	}
	if got := len(e.StopMonitor()); got != 1 {
		t.Fatalf("StopMonitor returned %d ops, want 1", got)
	}
	if e.StopMonitor() != nil {
		t.Fatal("second StopMonitor returned ops")
	}
	if !e.monitoring() {
		t.Fatal("stopping the session stopped the retrainer's recording")
	}
	e.StopAutoRetrain()
	if e.monitoring() {
		t.Fatalf("recording still on with no consumer (monOn = %d)", e.monOn.Load())
	}
}

// TestCrossShardUpdateWaitsForInstall: a cross-shard UpdateKey of a row that
// an in-flight rebalance has parked queues behind the rebalance and moves the
// row once the new bounds are installed, instead of failing with "absent
// key". A reader checks throughout that the row is visible exactly once.
func TestCrossShardUpdateWaitsForInstall(t *testing.T) {
	keys := workload.UniformKeys(2_000, 40_000, 17)
	e, err := New(keys, rebalanceConfig())
	if err != nil {
		t.Fatal(err)
	}
	old := e.loadPart().(*RangePartitioner).Bounds()
	shifted := make([]int64, len(old))
	for i, v := range old {
		shifted[i] = v + 2_000 // [old[i], old[i]+2000) moves from shard i+1 to shard i
	}
	a := old[0] + 1 // parked by the rebalance: shard 1 loses it to shard 0
	for e.PointQuery(a) != 0 {
		a++
	}
	const b = 45_000 // past every key: the last shard under both bound sets
	e.Insert(a)

	parked := make(chan struct{})
	release := make(chan struct{})
	var park sync.Once
	e.afterStage = func() {
		for _, m := range e.PendingMoves() {
			if m.Old == a {
				park.Do(func() { close(parked); <-release })
			}
		}
	}
	rebDone := make(chan error, 1)
	go func() {
		_, err := e.RebalanceTo(shifted)
		rebDone <- err
	}()
	<-parked

	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for !stop.Load() {
			e.View(func(v *View) {
				if n := v.PointQuery(a) + v.PointQuery(b); n != 1 {
					t.Errorf("row visible %d times", n)
				}
			})
		}
	}()
	updDone := make(chan error, 1)
	go func() { updDone <- e.UpdateKey(a, b) }()
	select {
	case err := <-updDone:
		t.Fatalf("UpdateKey returned (%v) while the rebalance held the row", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-updDone; err != nil {
		t.Fatalf("UpdateKey after the install: %v", err)
	}
	if got := e.loadPart().(*RangePartitioner).Bounds(); !slices.Equal(got, shifted) {
		t.Fatalf("UpdateKey returned before the install: bounds %v, want %v", got, shifted)
	}
	if err := <-rebDone; err != nil {
		t.Fatalf("RebalanceTo: %v", err)
	}
	stop.Store(true)
	<-readerDone
	if na, nb := e.PointQuery(a), e.PointQuery(b); na != 0 || nb != 1 {
		t.Fatalf("after update: counts (%d,%d), want (0,1)", na, nb)
	}
	assertPlacement(t, e)
}

// TestMigrationSurfacesWALAppendErrors: the MoveOut/MoveIn and RecRebalance
// appends of a publish report their errors to the caller instead of leaving
// them to a later commit.
func TestMigrationSurfacesWALAppendErrors(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.ByRange = true
	keys := make([]int64, 600)
	for i := range keys {
		keys[i] = int64(i)
	}
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	dst := e.Shards() - 1
	if err := e.shards[dst].log.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "wal: append to closed log"
	if err := e.UpdateKey(1, 10_000); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("cross-shard UpdateKey into a closed WAL: err = %v, want one wrapping %q", err, want)
	}
	if e.PointQuery(1) != 0 || e.PointQuery(10_000) != 1 {
		t.Fatal("the in-memory move must still have happened")
	}
	bounds := e.loadPart().(*RangePartitioner).Bounds()
	for i := range bounds {
		bounds[i] += 7
	}
	if _, err := e.RebalanceTo(bounds); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RebalanceTo with a closed WAL: err = %v, want one wrapping %q", err, want)
	}
}

// pingPongEngine builds a range-sharded engine of rows keys over 4 shards
// plus one extra row, and returns it with a key pair the row ping-pongs
// between: the first and last shard when cross, else two keys of shard 0.
func pingPongEngine(tb testing.TB, rows int, cross bool) (*Engine, int64, int64) {
	tb.Helper()
	keys := make([]int64, rows)
	for i := range keys {
		keys[i] = int64(i) * 10
	}
	e, err := New(keys, Config{Shards: 4, ByRange: true, Table: moveTestConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	a, b := int64(-5), int64(-3)
	if cross {
		b = int64(rows)*10 + 5
	}
	if p := e.Partitioner(); (p.Shard(a) != p.Shard(b)) != cross {
		tb.Fatalf("keys %d,%d: shards %d,%d", a, b, p.Shard(a), p.Shard(b))
	}
	e.Insert(a)
	return e, a, b
}

// BenchmarkUpdateKeyCrossShard ping-pongs one row between shards 0 and 3 of
// a 200k-row engine — one one-row migration per op — beside a same-shard
// ping-pong as the reference.
func BenchmarkUpdateKeyCrossShard(b *testing.B) {
	for _, tc := range []struct {
		name  string
		cross bool
	}{{"cross", true}, {"same", false}} {
		b.Run(tc.name, func(b *testing.B) {
			e, x, y := pingPongEngine(b, 200_000, tc.cross)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.UpdateKey(x, y); err != nil {
					b.Fatal(err)
				}
				x, y = y, x
			}
		})
	}
}

// TestCrossShardUpdateAllocs pins the cost of a one-row migration: a
// cross-shard UpdateKey allocates no more than the dedicated move protocol
// it replaced did (16 allocations per op).
func TestCrossShardUpdateAllocs(t *testing.T) {
	e, x, y := pingPongEngine(t, 20_000, true)
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.UpdateKey(x, y); err != nil {
			t.Fatal(err)
		}
		x, y = y, x
	})
	if allocs > 16 {
		t.Fatalf("cross-shard UpdateKey allocates %.1f times per op, want <= 16", allocs)
	}
}
