package shard

// White-box suite for the striped-gate read path: the sorted staged-move
// index behind reader compensation, snapshot-routed reads against a staged
// move, and the drift-monitor attribution the old read path got wrong —
// MultiRangeSum recorded itself as a plain Q3 range sum and Payload was
// invisible to the monitor entirely.

import (
	"testing"

	"casper/internal/table"
	"casper/internal/workload"
)

func TestMoveIndexLookups(t *testing.T) {
	mk := func(k int64) *pendingMove { return &pendingMove{old: k, new: k + 1} }
	a, b, c := mk(10), mk(20), mk(20) // duplicate old keys are legal
	ix := &moveIndex{byOld: []*pendingMove{a, b, c}}
	collect := func(lo, hi int64) []*pendingMove {
		var out []*pendingMove
		ix.forRange(lo, hi, func(m *pendingMove) { out = append(out, m) })
		return out
	}
	if got := collect(10, 10); len(got) != 1 || got[0] != a {
		t.Errorf("forRange(10,10) = %v, want exactly the move at 10", got)
	}
	if got := collect(20, 20); len(got) != 2 {
		t.Errorf("forRange(20,20) found %d moves, want both duplicates", len(got))
	}
	if got := collect(11, 19); len(got) != 0 {
		t.Errorf("forRange(11,19) found %d moves, want 0", len(got))
	}
	if got := collect(0, 100); len(got) != 3 {
		t.Errorf("forRange(0,100) found %d moves, want 3", len(got))
	}
	// Published indexes are immutable: the shared empty index must never
	// have absorbed a staged row.
	if emptyMoves.len() != 0 {
		t.Fatalf("emptyMoves mutated: len = %d", emptyMoves.len())
	}
}

// TestStagedMoveSnapshotCompensation pins the reader-compensation contract
// on the snapshot path: between the stage and publish windows of a
// cross-shard move, every read serves the staged row from the index at its
// old key — visible exactly once, payload intact.
func TestStagedMoveSnapshotCompensation(t *testing.T) {
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

	checked := false
	e.afterStage = func() {
		checked = true
		if got := stagedMoves(e); got != 1 {
			t.Errorf("mid-move: %d staged moves, want 1", got)
		}
		if got := e.PointQuery(a); got != 1 {
			t.Errorf("mid-move: PointQuery(old) = %d, want 1 (served from index)", got)
		}
		if got := e.PointQuery(b); got != 0 {
			t.Errorf("mid-move: PointQuery(new) = %d, want 0 (not yet published)", got)
		}
		if got := e.RangeCount(a-1, b+1); got != 1 {
			t.Errorf("mid-move: RangeCount around the pair = %d, want 1", got)
		}
		if got := e.RangeSum(a-1, a+1); got != a {
			t.Errorf("mid-move: RangeSum(old±1) = %d, want %d", got, a)
		}
		if v, ok := e.Payload(a, 1); !ok || v != table.DefaultPayload(a, 1) {
			t.Errorf("mid-move: Payload(old,1) = (%d,%v), want (%d,true)", v, ok, table.DefaultPayload(a, 1))
		}
		if got := e.Len(); got != len(keys)+1 {
			t.Errorf("mid-move: Len = %d, want %d", got, len(keys)+1)
		}
	}
	if err := e.UpdateKey(a, b); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("afterStage seam never ran")
	}
	if e.PointQuery(a) != 0 || e.PointQuery(b) != 1 {
		t.Errorf("after publish: counts (%d,%d), want (0,1)", e.PointQuery(a), e.PointQuery(b))
	}
	if got := stagedMoves(e); got != 0 {
		t.Errorf("after publish: %d staged moves left, want 0", got)
	}
}

// monitorKinds tallies the op kinds recorded across every shard's monitor.
func monitorKinds(e *Engine) map[workload.Kind]int {
	counts := make(map[workload.Kind]int)
	for _, s := range e.shards {
		for _, op := range s.mon.sample() {
			counts[op.Kind]++
		}
	}
	return counts
}

// TestMultiRangeSumMonitorAttribution regresses the falsified-mix bug:
// MultiRangeSum used to record itself as Q3RangeSum, so the retrainer and
// rebalancer could not tell the two apart in the recorded stream.
func TestMultiRangeSumMonitorAttribution(t *testing.T) {
	keys := make([]int64, 200)
	for i := range keys {
		keys[i] = int64(i)
	}
	e, err := New(keys, Config{Shards: 2, Table: moveTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	e.monOn.Add(1)
	defer e.monOn.Add(-1)

	e.RangeSum(0, 199)
	e.MultiRangeSum(0, 199, nil, 0)

	counts := monitorKinds(e)
	if counts[workload.Q3RangeSum] == 0 {
		t.Error("RangeSum not recorded as Q3RangeSum")
	}
	if counts[workload.Q7MultiRange] == 0 {
		t.Error("MultiRangeSum not recorded as Q7MultiRange")
	}
	// Both are range-shaped over the same span, so they fan into the same
	// shards: the recorded stream distinguishes them by kind alone.
	if counts[workload.Q3RangeSum] != counts[workload.Q7MultiRange] {
		t.Errorf("recorded Q3=%d Q7=%d over identical spans, want equal counts",
			counts[workload.Q3RangeSum], counts[workload.Q7MultiRange])
	}
}

// TestPayloadFeedsMonitor regresses the invisible-read bug: Payload never
// called e.record, so payload-heavy workloads could not trigger retraining.
func TestPayloadFeedsMonitor(t *testing.T) {
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

	if _, ok := e.Payload(5, 0); !ok {
		t.Fatal("Payload(5,0) missed a resident key")
	}
	found := false
	for _, s := range e.shards {
		for _, op := range s.mon.sample() {
			if op.Kind == workload.Q1PointQuery && op.Key == 5 {
				found = true
			}
		}
	}
	if !found {
		t.Error("Payload read left no point-access trace in the drift monitor")
	}

	// Misses record too — like PointQuery, a miss scans the same partition
	// a hit would, which is what layout decisions care about.
	before := monitorKinds(e)[workload.Q1PointQuery]
	if _, ok := e.Payload(1_000_000, 0); ok {
		t.Fatal("Payload of absent key reported ok")
	}
	if after := monitorKinds(e)[workload.Q1PointQuery]; after <= before {
		t.Errorf("Payload miss not recorded: Q1 count %d, want > %d", after, before)
	}
}
