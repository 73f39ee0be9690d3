package casper

import (
	"testing"

	"casper/internal/shard"
	"casper/internal/table"
	"casper/internal/wal"
	"casper/internal/workload"
)

// Compile-time identity: each public name IS the internal type, not a copy
// of it. These assignments only type-check for alias declarations — two
// distinct named types are never assignable to each other.
var (
	_ workload.Op           = Op{}
	_ workload.Kind         = OpKind(0)
	_ table.PayloadFilter   = Filter{}
	_ shard.LayoutSummary   = LayoutSummary{}
	_ shard.RetrainPolicy   = RetrainPolicy{}
	_ shard.RebalancePolicy = RebalancePolicy{}
	_ *shard.View           = (*View)(nil)
	_ *shard.Pending        = (*PendingBatch)(nil)
	_ table.Mode            = Mode(0)
	_ wal.SyncPolicy        = SyncMode(0)
)

// TestOpKindConstantsExecuteAsWorkloadKinds pins the constant mapping the
// deleted translator used to implement: every casper.OpKind constant is its
// workload.Kind, and executing it through the facade gives the result the
// shard layer gives for that kind on a twin engine.
func TestOpKindConstantsExecuteAsWorkloadKinds(t *testing.T) {
	pairs := []struct {
		pub      OpKind
		internal workload.Kind
		op       Op
	}{
		{PointQuery, workload.Q1PointQuery, Op{Key: 0}},
		{RangeCount, workload.Q2RangeCount, Op{Key: 0, Key2: 5_000}},
		{RangeSum, workload.Q3RangeSum, Op{Key: 100, Key2: 9_000}},
		{Insert, workload.Q4Insert, Op{Key: 123_456}},
		{Delete, workload.Q5Delete, Op{Key: 123_456}},
		{Update, workload.Q6Update, Op{Key: 0, Key2: 777_777}},
		{Scan, workload.Q8Scan, Op{Key: 0, Key2: 1 << 40, Limit: 9}},
	}
	keys := UniformKeys(2_000, 20_000, 77)
	pairs[0].op.Key, pairs[5].op.Key = keys[0], keys[1]
	facade, err := Open(keys, testOptions(ModeCasper))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Open(keys, testOptions(ModeCasper))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.pub != p.internal {
			t.Fatalf("casper kind %d != workload kind %v", int(p.pub), p.internal)
		}
		pubOp, inOp := p.op, p.op
		pubOp.Kind, inOp.Kind = p.pub, p.internal
		got, want := facade.Execute(pubOp), twin.sh.Execute(inOp)
		if got != want {
			t.Fatalf("%v: facade Execute = %d, shard Execute = %d", p.internal, got, want)
		}
		if got == 0 {
			t.Fatalf("%v: executed to 0 — the op did nothing, so the pair proves nothing", p.internal)
		}
	}
	if facade.Len() != twin.Len() {
		t.Fatalf("twin engines diverged: Len %d vs %d", facade.Len(), twin.Len())
	}
}

// TestExecuteUnknownKindReturnsZero pins the one behaviour this collapse
// changed: an Op whose Kind is outside the enumeration used to panic in the
// facade's kind translator; with one Op type there is no translator, and
// Execute (like the shard layer always did) runs nothing and returns 0.
func TestExecuteUnknownKindReturnsZero(t *testing.T) {
	e := openTest(t, ModeCasper, 500)
	before := e.Len()
	for _, k := range []OpKind{-1, 99} {
		if got := e.Execute(Op{Kind: k, Key: 1, Key2: 2}); got != 0 {
			t.Fatalf("Execute(kind %d) = %d, want 0", int(k), got)
		}
	}
	if got := e.ApplyBatch([]Op{{Kind: 99, Key: 1}, {Kind: Insert, Key: 1}}); got != 1 {
		t.Fatalf("ApplyBatch with one unknown kind = %d, want 1 (the insert)", got)
	}
	if e.Len() != before+1 {
		t.Fatalf("Len = %d, want %d", e.Len(), before+1)
	}
}
