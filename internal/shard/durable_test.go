package shard

// Durability suite: crash recovery must restore exactly the state a shadow
// in-memory twin reaches. The kill/replay property test chops the WAL at
// op boundaries and at random offsets inside the final record (torn tail)
// and replays from a copy of the directory, so one run exercises many
// simulated crashes.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"casper/internal/table"
	"casper/internal/wal"
	"casper/internal/workload"
)

func durableConfig(dir string) Config {
	return Config{
		Shards: 3,
		Table: table.Config{
			Mode:        table.Casper,
			PayloadCols: 3,
			ChunkValues: 128,
			BlockValues: 16,
			GhostFrac:   0.01,
			Partitions:  4,
		},
		Dir:  dir,
		Sync: wal.SyncNone, // same-process "crashes" read the page cache
	}
}

func durableKeys(n int, rng *rand.Rand) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(1000)
	}
	return keys
}

// rowkv is one live row in canonical form.
type rowkv struct {
	key int64
	row []int32
}

// engineState returns the engine's full logical state in canonical order
// (key ascending, then row lexicographic), layout-independent.
func engineState(e *Engine) []rowkv {
	var out []rowkv
	for _, s := range e.shards {
		if s.tbl == nil {
			continue
		}
		keys, rows := s.tbl.Snapshot()
		for i := range keys {
			out = append(out, rowkv{keys[i], rows[i]})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].key != out[b].key {
			return out[a].key < out[b].key
		}
		ra, rb := out[a].row, out[b].row
		for i := range ra {
			if i >= len(rb) || ra[i] != rb[i] {
				return i < len(rb) && ra[i] < rb[i]
			}
		}
		return false
	})
	return out
}

func statesEqual(a, b []rowkv) bool { return reflect.DeepEqual(a, b) }

// copyDir clones a durable engine directory so recovery can run against a
// frozen "crash image" while the live engine keeps going.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}

// segPath returns the path of shard i's current (newest) WAL segment.
func segPath(t *testing.T, dir string, i int) string {
	t.Helper()
	sdir := shardDir(dir, i)
	entries, err := os.ReadDir(sdir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".log" && e.Name() > newest {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatalf("no WAL segment in %s", sdir)
	}
	return filepath.Join(sdir, newest)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// mutateOp is one scripted write, applied identically to the durable engine
// and its shadow twin.
type mutateOp struct {
	kind     int // 0 insert, 1 delete, 2 update
	key, new int64
}

func (op mutateOp) apply(e *Engine) {
	switch op.kind {
	case 0:
		e.Insert(op.key)
	case 1:
		_ = e.Delete(op.key)
	case 2:
		_ = e.UpdateKey(op.key, op.new)
	}
}

// genTrainSample builds a skewed read-mostly sample so Train produces a
// non-trivial partitioning on every shard.
func genTrainSample(keys []int64, rng *rand.Rand) []workload.Op {
	ops := make([]workload.Op, 0, 600)
	for i := 0; i < 500; i++ {
		k := keys[rng.Intn(len(keys)/4+1)] // skew toward the head
		ops = append(ops, workload.Op{Kind: workload.Q1PointQuery, Key: k})
	}
	for i := 0; i < 100; i++ {
		lo := rng.Int63n(900)
		ops = append(ops, workload.Op{Kind: workload.Q2RangeCount, Key: lo, Key2: lo + 50})
	}
	return ops
}

// genOps scripts nOps writes biased toward live keys so deletes and updates
// mostly hit, with cross-shard updates well represented under hashing.
func genOps(rng *rand.Rand, keys []int64, nOps int) []mutateOp {
	live := append([]int64(nil), keys...)
	ops := make([]mutateOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		var op mutateOp
		switch r := rng.Intn(10); {
		case r < 4: // insert
			op = mutateOp{kind: 0, key: rng.Int63n(1000)}
			live = append(live, op.key)
		case r < 6: // delete
			op = mutateOp{kind: 1, key: live[rng.Intn(len(live))]}
		default: // update (hash partitioning makes most of these cross-shard)
			op = mutateOp{kind: 2, key: live[rng.Intn(len(live))], new: rng.Int63n(1000)}
			live = append(live, op.new)
		}
		ops = append(ops, op)
	}
	return ops
}

func TestDurableBootstrapAndReopen(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	keys := durableKeys(400, rng)
	e, err := New(keys, durableConfig(dir))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, op := range genOps(rng, keys, 120) {
		op.apply(e)
	}
	want := engineState(e)
	wantEpoch := e.Epoch()
	e.Close()

	re, err := New(nil, durableConfig(dir)) // keys ignored: directory has state
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := engineState(re); !statesEqual(got, want) {
		t.Fatalf("reopened state diverged: %d rows vs %d", len(got), len(want))
	}
	if re.Epoch() < wantEpoch {
		t.Fatalf("epoch regressed: %d < %d", re.Epoch(), wantEpoch)
	}
	// The reopened engine keeps working and persisting.
	re.Insert(12345)
	if re.PointQuery(12345) == 0 {
		t.Fatal("insert after recovery not visible")
	}
}

// TestKillReplayRandomOffsets is the crash property test: it applies a
// scripted workload, snapshotting a shadow in-memory twin and the per-shard
// WAL sizes after every op, then simulates crashes by truncating a copy of
// the directory — at op boundaries (clean kill) and at random byte offsets
// inside the last record (torn tail) — and asserts the recovered state is
// byte-identical to the shadow twin at the corresponding op (for a torn
// final record: at that op or the one before, since a torn cross-shard move
// resolves to whichever side of the crash its surviving records prove).
func TestKillReplayRandomOffsets(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	keys := durableKeys(300, rng)
	cfg := durableConfig(dir)
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	shadow, err := New(keys, Config{Shards: cfg.Shards, Table: cfg.Table})
	if err != nil {
		t.Fatal(err)
	}

	nShards := e.Shards()
	ops := genOps(rng, keys, 160)
	states := make([][]rowkv, 0, len(ops)+1) // shadow state after op i
	sizes := make([][]int64, 0, len(ops)+1)  // WAL sizes after op i
	states = append(states, engineState(shadow))
	snapSizes := func() []int64 {
		out := make([]int64, nShards)
		for i := 0; i < nShards; i++ {
			out[i] = fileSize(t, segPath(t, dir, i))
		}
		return out
	}
	sizes = append(sizes, snapSizes())
	for _, op := range ops {
		op.apply(e)
		op.apply(shadow)
		states = append(states, engineState(shadow))
		sizes = append(sizes, snapSizes())
		// The durable engine and its twin must agree while both are alive.
	}
	if !statesEqual(engineState(e), states[len(states)-1]) {
		t.Fatal("durable engine diverged from in-memory twin before any crash")
	}

	recoverAt := func(cut []int64) *Engine {
		t.Helper()
		crash := t.TempDir()
		copyDir(t, dir, crash)
		for i := 0; i < nShards; i++ {
			if err := os.Truncate(segPath(t, crash, i), cut[i]); err != nil {
				t.Fatal(err)
			}
		}
		rcfg := cfg
		rcfg.Dir = crash
		re, err := New(nil, rcfg)
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		re.Close()
		return re
	}

	// Clean kills at op boundaries: recovered state must equal the shadow
	// twin exactly at that op.
	for i := 0; i < len(states); i += 9 {
		re := recoverAt(sizes[i])
		if got := engineState(re); !statesEqual(got, states[i]) {
			t.Fatalf("clean kill after op %d: recovered %d rows, twin has %d",
				i, len(got), len(states[i]))
		}
	}

	// Torn kills: truncate one shard's log somewhere strictly inside the
	// bytes op i appended, leaving the other shards at the op-i boundary.
	torn := 0
	for i := 1; i < len(states) && torn < 25; i++ {
		grew := -1
		for s := 0; s < nShards; s++ {
			if sizes[i][s] > sizes[i-1][s] {
				grew = s
				break
			}
		}
		if grew < 0 {
			continue // op was a no-op (e.g. failed delete)
		}
		torn++
		cut := append([]int64(nil), sizes[i]...)
		span := cut[grew] - sizes[i-1][grew]
		cut[grew] = sizes[i-1][grew] + 1 + rng.Int63n(span) // strictly inside, may equal boundary
		if cut[grew] >= sizes[i][grew] {
			cut[grew] = sizes[i][grew] - 1 // force a genuinely torn final record
		}
		if cut[grew] <= sizes[i-1][grew] {
			continue // record of 1 byte cannot be torn strictly inside
		}
		re := recoverAt(cut)
		got := engineState(re)
		if !statesEqual(got, states[i-1]) && !statesEqual(got, states[i]) {
			t.Fatalf("torn kill inside op %d (shard %d cut %d of [%d,%d]): recovered state matches neither twin state",
				i, grew, cut[grew], sizes[i-1][grew], sizes[i][grew])
		}
	}
	if torn == 0 {
		t.Fatal("workload produced no torn-kill candidates")
	}
}

// TestKillReplayDuringRebalance extends the kill/replay property suite with
// crashes at random byte offsets inside a rebalance's durability footprint —
// including between the WAL boundary record and the bulk-move records, and
// between the WAL commit and the manifest rewrite. Every crash image must
// recover rows byte-identical to the in-memory shadow twin, land on exactly
// one consistent boundary set (old or new, never a blend), and place every
// row on the shard that owns it under the recovered set. The suite runs once
// per proposal strategy: the quantile baseline rewrites every boundary,
// while the minimal default must leave part of the bounds vector
// bit-identical mid-crash and still recover exactly one consistent set.
func TestKillReplayDuringRebalance(t *testing.T) {
	t.Run("quantile", func(t *testing.T) {
		runKillReplayRebalance(t, rebalanceQuantile, false)
	})
	t.Run("minimal", func(t *testing.T) {
		runKillReplayRebalance(t, func(e *Engine) (RebalanceResult, error) {
			return e.Rebalance() // minimal is the default proposer
		}, true)
	})
}

// runKillReplayRebalance drives one strategy through the crash matrix;
// wantPartial asserts the proposal changed a strict subset of the boundary
// vector (the minimal proposer's signature property — crashes then straddle
// records whose bounds mostly equal the manifest's).
func runKillReplayRebalance(t *testing.T, rebalance func(*Engine) (RebalanceResult, error), wantPartial bool) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	keys := durableKeys(300, rng)
	cfg := durableConfig(dir)
	cfg.ByRange = true
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	twin, err := New(keys, Config{Shards: cfg.Shards, ByRange: true, Table: cfg.Table})
	if err != nil {
		t.Fatal(err)
	}
	nShards := e.Shards()

	// A scripted mixed prefix, then a drift burst onto the top of the
	// domain, applied identically to both engines.
	for _, op := range genOps(rng, keys, 80) {
		op.apply(e)
		op.apply(twin)
	}
	for i := 0; i < 250; i++ {
		k := 900 + rng.Int63n(100)
		e.Insert(k)
		twin.Insert(k)
	}
	want := engineState(twin)
	if !statesEqual(engineState(e), want) {
		t.Fatal("durable engine diverged from twin before the rebalance")
	}
	if e.Skew() < 1.2 {
		t.Fatalf("drift burst produced skew %.2f; rebalance would be a no-op", e.Skew())
	}
	oldBounds := e.Partitioner().(*RangePartitioner).Bounds()

	// Flush so the pre-rebalance WAL prefix is the durable baseline, then
	// record each shard's segment size: the rebalance's records land after
	// these offsets.
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	preSizes := make([]int64, nShards)
	for i := 0; i < nShards; i++ {
		preSizes[i] = fileSize(t, segPath(t, dir, i))
	}

	// Crash image A: mid-staging (rows parked in the in-memory registry,
	// nothing of the rebalance in the WAL).
	stagedImg := t.TempDir()
	stagedCopied := false
	e.afterStage = func() {
		if !stagedCopied {
			stagedCopied = true
			copyDir(t, dir, stagedImg)
		}
	}
	// Crash image B: after the WAL records commit, before the manifest
	// rewrite and checkpoint — the window where only the WAL tails know the
	// new bounds.
	preManifest := t.TempDir()
	e.afterRebalanceWAL = func() {
		if err := e.SyncWAL(); err != nil { // SyncNone: make the tail real
			t.Errorf("seam sync: %v", err)
		}
		copyDir(t, dir, preManifest)
	}

	res, err := rebalance(e)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if res.Moved == 0 || !stagedCopied {
		t.Fatalf("rebalance moved %d rows (staging seam ran: %v)", res.Moved, stagedCopied)
	}
	newBounds := res.NewBounds
	if wantPartial {
		changed := 0
		for i := range newBounds {
			if newBounds[i] != oldBounds[i] {
				changed++
			}
		}
		if changed == 0 || changed == len(newBounds) {
			t.Fatalf("minimal proposer changed %d of %d boundaries (%v -> %v); scenario needs a strict subset",
				changed, len(newBounds), oldBounds, newBounds)
		}
	}

	// Recovery mutates a directory (fresh WAL segment, torn-tail repair), so
	// every recovery below runs against a throwaway copy of its image.
	assertRecovered := func(img string, label string) *Engine {
		t.Helper()
		work := t.TempDir()
		copyDir(t, img, work)
		rcfg := cfg
		rcfg.Dir = work
		re, err := New(nil, rcfg)
		if err != nil {
			t.Fatalf("%s: recovery: %v", label, err)
		}
		re.Close()
		if got := engineState(re); !statesEqual(got, want) {
			t.Fatalf("%s: recovered %d rows, twin has %d (or payloads diverged)", label, len(got), len(want))
		}
		got := re.Partitioner().(*RangePartitioner).Bounds()
		if !slices.Equal(got, oldBounds) && !slices.Equal(got, newBounds) {
			t.Fatalf("%s: recovered bounds %v are neither old %v nor new %v", label, got, oldBounds, newBounds)
		}
		assertPlacement(t, re)
		return re
	}

	// Image A recovers the pre-rebalance timeline; image B must resolve the
	// new bounds from the WAL tails despite the stale manifest.
	assertRecovered(stagedImg, "mid-staging image")
	reB := assertRecovered(preManifest, "pre-manifest image")
	if got := reB.Partitioner().(*RangePartitioner).Bounds(); !slices.Equal(got, newBounds) {
		t.Fatalf("pre-manifest image: bounds %v, want the WAL-carried new bounds %v", got, newBounds)
	}

	// Random-offset kills inside the rebalance's WAL span: each shard's tail
	// is cut independently somewhere in [pre-rebalance size, full size],
	// slicing every interleaving of bulk moves and the boundary record
	// (torn final frames included).
	postSizes := make([]int64, nShards)
	for i := 0; i < nShards; i++ {
		postSizes[i] = fileSize(t, segPath(t, preManifest, i))
		if postSizes[i] < preSizes[i] {
			t.Fatalf("shard %d: WAL shrank across the rebalance (%d -> %d)", i, preSizes[i], postSizes[i])
		}
	}
	for trial := 0; trial < 12; trial++ {
		crash := t.TempDir()
		copyDir(t, preManifest, crash)
		for i := 0; i < nShards; i++ {
			cut := preSizes[i] + rng.Int63n(postSizes[i]-preSizes[i]+1)
			if err := os.Truncate(segPath(t, crash, i), cut); err != nil {
				t.Fatal(err)
			}
		}
		assertRecovered(crash, fmt.Sprintf("random-offset trial %d", trial))
	}

	// The completed live directory (manifest + checkpoint in place).
	reF := assertRecovered(dir, "completed rebalance")
	if got := reF.Partitioner().(*RangePartitioner).Bounds(); !slices.Equal(got, newBounds) {
		t.Fatalf("completed image: bounds %v, want %v", got, newBounds)
	}
	if reF.Skew() >= 1.5 && e.Skew() < 1.5 {
		t.Fatalf("recovered skew %.2f lost the rebalance's balance", reF.Skew())
	}
}

// TestCheckpointDuringStagedMove cuts a checkpoint while a cross-shard move
// is staged (taken from its source shard, not yet published). The
// checkpoint must count the row exactly once — at its old key — and a
// recovery from that image must restore it there; the observability of the
// staged move is asserted through PendingMoves.
func TestCheckpointDuringStagedMove(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	keys := durableKeys(200, rng)
	cfg := durableConfig(dir)
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Find a key pair on different shards whose counts are unambiguous.
	var old, new int64
	for k := int64(2000); ; k++ {
		if e.PointQuery(k) == 0 {
			if old == 0 {
				old = k
			} else if e.Partitioner().Shard(k) != e.Partitioner().Shard(old) {
				new = k
				break
			}
		}
	}
	e.Insert(old)

	crash := t.TempDir()
	checked := false
	e.afterStage = func() {
		pend := e.PendingMoves()
		if len(pend) != 1 || pend[0].Old != old || pend[0].New != new {
			t.Errorf("PendingMoves mid-move = %+v, want [{%d %d}]", pend, old, new)
		}
		// The staged row must still be visible, exactly once, at old.
		if got := e.PointQuery(old); got != 1 {
			t.Errorf("staged row: PointQuery(old) = %d, want 1", got)
		}
		if err := e.Checkpoint(); err != nil {
			t.Errorf("checkpoint during staged move: %v", err)
		}
		copyDir(t, dir, crash)
		checked = true
	}
	if err := e.UpdateKey(old, new); err != nil {
		t.Fatalf("UpdateKey: %v", err)
	}
	if !checked {
		t.Fatal("afterStage seam did not run")
	}
	if pend := e.PendingMoves(); len(pend) != 0 {
		t.Fatalf("PendingMoves after publish = %+v", pend)
	}

	// Recovery from the mid-move image: the move never published in that
	// timeline, so the row lives at old on exactly one shard.
	rcfg := cfg
	rcfg.Dir = crash
	re, err := New(nil, rcfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := re.PointQuery(old); got != 1 {
		t.Fatalf("recovered PointQuery(old) = %d, want 1", got)
	}
	if got := re.PointQuery(new); got != 0 {
		t.Fatalf("recovered PointQuery(new) = %d, want 0", got)
	}

	// The live engine published the move; a recovery of its directory (with
	// the post-checkpoint WAL tail holding the MoveOut/MoveIn pair) lands
	// the row at new.
	if err := e.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	after := t.TempDir()
	copyDir(t, dir, after)
	rcfg.Dir = after
	re2, err := New(nil, rcfg)
	if err != nil {
		t.Fatalf("post-publish recovery: %v", err)
	}
	defer re2.Close()
	if got := re2.PointQuery(new); got != 1 {
		t.Fatalf("post-publish recovered PointQuery(new) = %d, want 1", got)
	}
	if got := re2.PointQuery(old); got != 0 {
		t.Fatalf("post-publish recovered PointQuery(old) = %d, want 0", got)
	}
}

// TestTrainedLayoutSurvivesRecovery checks the checkpoint restores the
// learned partitioning without re-running the solver: the recovered engine
// reports the same per-chunk layouts as the trained one.
func TestTrainedLayoutSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	keys := durableKeys(400, rng)
	cfg := durableConfig(dir)
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Train(genTrainSample(keys, rng), 1); err != nil {
		t.Fatalf("Train: %v", err)
	}
	want := e.Layouts()
	if len(want) == 0 {
		t.Fatal("trained engine reports no layouts")
	}

	crash := t.TempDir()
	copyDir(t, dir, crash)
	rcfg := cfg
	rcfg.Dir = crash
	re, err := New(nil, rcfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	got := re.Layouts()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered layouts diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if got := engineState(re); !statesEqual(got, engineState(e)) {
		t.Fatal("recovered rows diverged after layout restore")
	}
}

// TestCheckpointDoesNotOrphanMovePair guards the move-pair durability
// invariant: a per-shard checkpoint prunes its own half of published
// MoveOut/MoveIn pairs and records a horizon covering them, which is only
// sound if the OTHER shard's half is on stable storage first. Under
// Sync=none the destination's MoveIn lives in the page cache, so the
// checkpoint must flush every WAL before it commits; otherwise this
// power-loss sequence recovers the moved row on zero shards.
func TestCheckpointDoesNotOrphanMovePair(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	keys := durableKeys(200, rng)
	cfg := durableConfig(dir) // SyncNone: durability only via checkpoint flushes
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var old, new int64
	for k := int64(2000); ; k++ {
		if e.PointQuery(k) == 0 {
			if old == 0 {
				old = k
			} else if e.Partitioner().Shard(k) != e.Partitioner().Shard(old) {
				new = k
				break
			}
		}
	}
	e.Insert(old)
	if err := e.UpdateKey(old, new); err != nil {
		t.Fatalf("UpdateKey: %v", err)
	}

	// Checkpoint ONLY the source shard: it prunes the MoveOut and records a
	// move horizon covering the move.
	if err := e.checkpointShard(e.Partitioner().Shard(old)); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Power loss: every shard keeps exactly its provably durable prefix.
	crash := t.TempDir()
	copyDir(t, dir, crash)
	for i, s := range e.shards {
		if err := os.Truncate(segPath(t, crash, i), s.log.DurableOffset()); err != nil {
			t.Fatal(err)
		}
	}

	rcfg := cfg
	rcfg.Dir = crash
	re, err := New(nil, rcfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := re.PointQuery(new); got != 1 {
		t.Fatalf("recovered PointQuery(new) = %d, want 1 — move pair orphaned by checkpoint", got)
	}
	if got := re.PointQuery(old); got != 0 {
		t.Fatalf("recovered PointQuery(old) = %d, want 0 — row duplicated across shards", got)
	}
}
