package casper

// The public monitor is the shard layer's op-log: StartMonitor opens a
// session over the per-shard windows the background retrainer samples, and
// Retrain re-solves each shard from its own window. These tests pin what
// the old engine-wide ring guaranteed — counts, window eviction, Retrain's
// preconditions — plus what the single op-log adds (direct calls are
// recorded, failed writes are not, a multi-shard op counts once).

import (
	"math"
	"testing"
)

func TestMonitorRecordsAndRetrains(t *testing.T) {
	keys := UniformKeys(4000, 40_000, 13)
	e, err := Open(keys, testOptions(ModeCasper))
	if err != nil {
		t.Fatal(err)
	}
	if e.Monitored() != 0 {
		t.Fatal("monitor active before StartMonitor")
	}
	if err := e.Retrain(1); err == nil {
		t.Fatal("Retrain without monitor accepted")
	}

	e.StartMonitor(1000)
	var ops []Op
	for i := 0; i < 300; i++ {
		ops = append(ops, Op{Kind: PointQuery, Key: int64(i * 100)})
		ops = append(ops, Op{Kind: Insert, Key: int64(i * 50)})
	}
	e.ExecuteAll(ops)
	if got := e.Monitored(); got != 600 {
		t.Fatalf("Monitored = %d, want 600", got)
	}
	if err := e.Retrain(2); err != nil {
		t.Fatalf("Retrain: %v", err)
	}
	if len(e.Layouts()) == 0 {
		t.Fatal("no layouts after retrain")
	}
	// Data survives the re-partitioning cycle.
	if e.Len() != 4000+300 {
		t.Fatalf("Len = %d, want 4300", e.Len())
	}

	rec := e.StopMonitor()
	if len(rec) != 600 {
		t.Fatalf("StopMonitor returned %d ops, want 600", len(rec))
	}
	if e.Monitored() != 0 {
		t.Fatal("monitor still active after StopMonitor")
	}
	if e.StopMonitor() != nil {
		t.Fatal("second StopMonitor returned ops")
	}
	if err := e.Retrain(1); err == nil {
		t.Fatal("Retrain after StopMonitor accepted")
	}
	// A fresh session starts empty and refuses to retrain from nothing.
	e.StartMonitor(0)
	if got := e.Monitored(); got != 0 {
		t.Fatalf("restarted monitor holds %d ops, want 0", got)
	}
	if err := e.Retrain(1); err == nil {
		t.Fatal("Retrain with an empty window accepted")
	}
}

// TestMonitorIsTheShardOpLog: on a sharded engine the session sees every
// served operation — through Execute or the direct methods alike — counts an
// operation spanning shards once, skips writes that failed, and Retrain
// trains each shard from its own window.
func TestMonitorIsTheShardOpLog(t *testing.T) {
	keys := UniformKeys(4000, 40_000, 21)
	opts := testOptions(ModeCasper)
	opts.Shards, opts.ShardByRange = 4, true
	e, err := Open(keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.StartMonitor(1000)
	e.PointQuery(keys[0])                    // direct call, not Execute
	e.RangeCount(0, math.MaxInt64)           // spans all four shards
	e.Execute(Op{Kind: Insert, Key: 41_000}) // via Execute
	if err := e.Delete(-5); err == nil {     // absent key: must not be recorded
		t.Fatal("Delete of an absent key succeeded")
	}
	e.ApplyBatch([]Op{{Kind: PointQuery, Key: keys[1]}, {Kind: RangeSum, Key: 0, Key2: 10}})
	if got := e.Monitored(); got != 5 {
		t.Fatalf("Monitored = %d, want 5 (point, range, insert, batch point, batch range)", got)
	}
	kinds := map[OpKind]int{}
	for _, op := range e.StopMonitor() {
		kinds[op.Kind]++
	}
	want := map[OpKind]int{PointQuery: 2, RangeCount: 1, RangeSum: 1, Insert: 1}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("recorded kinds = %v, want %v", kinds, want)
		}
	}
	if kinds[Delete] != 0 {
		t.Fatal("failed delete was recorded")
	}

	e.StartMonitor(1000)
	for i := 0; i < 400; i++ {
		e.PointQuery(keys[i])
		e.Insert(int64(i) * 97)
	}
	if err := e.Retrain(2); err != nil {
		t.Fatalf("Retrain on a sharded engine: %v", err)
	}
	if e.Len() != 4000+1+400 {
		t.Fatalf("Len = %d after retrain, want %d", e.Len(), 4000+1+400)
	}
}

func TestMonitorWindowEviction(t *testing.T) {
	e := openTest(t, ModeCasper, 500)
	e.StartMonitor(100)
	for i := 0; i < 500; i++ {
		e.Execute(Op{Kind: PointQuery, Key: int64(i)})
	}
	got := e.Monitored()
	if got > 100 {
		t.Fatalf("monitor kept %d ops, cap 100", got)
	}
	if got == 0 {
		t.Fatal("monitor empty after 500 ops")
	}
	// The retained window is the most recent operations.
	rec := e.StopMonitor()
	if rec[len(rec)-1].Key != 499 {
		t.Fatalf("last recorded key = %d, want 499", rec[len(rec)-1].Key)
	}
}

func TestRetrainAdaptsToDrift(t *testing.T) {
	// Train for reads on the low domain, then shift traffic to the high
	// domain and retrain: the observed mean point-query latency should not
	// degrade after the re-partitioning cycle.
	keys := make([]int64, 8192)
	for i := range keys {
		keys[i] = int64(i)
	}
	e, err := Open(keys, Options{
		Mode:        ModeCasper,
		PayloadCols: 1,
		ChunkValues: 16_384,
		BlockBytes:  1024, // 128 values per block
		GhostFrac:   0.01,
		Partitions:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var initial []Op
	for i := 0; i < 2000; i++ {
		initial = append(initial, Op{Kind: PointQuery, Key: int64(i % 2048)})
		if i%4 == 0 {
			initial = append(initial, Op{Kind: Insert, Key: int64(4096 + i%2048)})
		}
	}
	if err := e.Train(initial, 1); err != nil {
		t.Fatal(err)
	}
	before := e.Layouts()[0]

	// Drifted traffic: reads now hammer the high domain.
	e.StartMonitor(10_000)
	for i := 0; i < 2000; i++ {
		e.Execute(Op{Kind: PointQuery, Key: int64(6144 + i%2048)})
		if i%4 == 0 {
			e.Execute(Op{Kind: Insert, Key: int64(i % 2048)})
		}
	}
	if err := e.Retrain(1); err != nil {
		t.Fatal(err)
	}
	after := e.Layouts()[0]
	if before.Partitions == after.Partitions {
		// Partition counts may coincide; the sizes must differ if the
		// layout really adapted.
		same := len(before.Sizes) == len(after.Sizes)
		if same {
			for i := range before.Sizes {
				if before.Sizes[i] != after.Sizes[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("layout did not adapt to drift: %v", after.Sizes)
		}
	}
}
