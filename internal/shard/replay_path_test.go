package shard

// One record, one replay path: the same mutation stream must produce the
// same image whether its records are drained from a retrain journal onto a
// shadow table, replayed from a crashed WAL onto a checkpoint, or applied to
// a follower — all three go through applyRecord. Also pins that seeding an
// empty shard from a malformed record is an error, never a panic.

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"casper/internal/obs"
	"casper/internal/table"
	"casper/internal/wal"
)

// canonDumps returns DumpShards with the rows of each duplicate-key run
// sorted: a table rebuilt from a checkpoint may legally hold duplicates of
// one key in a different physical order than the table that absorbed them
// one write at a time; everything else about a shard's contents must match.
func canonDumps(e *Engine) []ShardDump {
	dumps := e.DumpShards()
	for _, d := range dumps {
		for lo := 0; lo < len(d.Keys); {
			hi := lo
			for hi < len(d.Keys) && d.Keys[hi] == d.Keys[lo] {
				hi++
			}
			run := d.Rows[lo:hi]
			sort.Slice(run, func(a, b int) bool {
				for c := range run[a] {
					if run[a][c] != run[b][c] {
						return run[a][c] < run[b][c]
					}
				}
				return false
			})
			lo = hi
		}
	}
	return dumps
}

func TestOneReplayPath(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	rng := rand.New(rand.NewSource(14))
	keys := durableKeys(300, rng)
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Follower: bootstrapped from the initial checkpoints, tailing every
	// shard's WAL.
	boot, err := NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tailers := make([]*wal.Tailer, len(boot.FromSeqs))
	for i, seq := range boot.FromSeqs {
		if tailers[i], err = wal.OpenTailer(WALDir(dir, i), seq); err != nil {
			t.Fatal(err)
		}
		defer tailers[i].Close()
	}
	rep := boot.Engine.NewReplicator(boot.BoundsEpoch)
	catchUp := func() {
		t.Helper()
		for {
			var recs []ReplicatedRecord
			for i, tl := range tailers {
				rs, err := tl.Poll()
				if err != nil {
					t.Fatalf("poll shard %d: %v", i, err)
				}
				for _, r := range rs {
					recs = append(recs, ReplicatedRecord{Shard: i, Rec: r})
				}
			}
			n, err := rep.Apply(recs)
			if err != nil {
				t.Fatalf("follower apply: %v", err)
			}
			if n == 0 {
				return
			}
		}
	}

	// Hold a shadow retrain open on every shard, so every mutation below is
	// journaled (and WAL-logged) before any swap drains it.
	gate := make(chan struct{})
	done := make(chan error, len(e.shards))
	for i := range e.shards {
		go func(i int) {
			done <- e.retrainShard(i, func(*table.Table) error { <-gate; return nil })
		}(i)
	}
	for _, s := range e.shards {
		for !journalingOn(s) {
			time.Sleep(time.Millisecond)
		}
	}

	// The stream: duplicate keys, deletes that must pick the right duplicate,
	// same-shard and cross-shard updates (the latter moving a payload onto a
	// key that already has one, so the duplicates differ).
	live := append([]int64(nil), keys...)
	pick := func() int64 { return live[rng.Intn(len(live))] }
	crossMoves := 0
	for i := 0; i < 600; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
			k := pick() // duplicate of a live key
			if r < 2 {
				k = rng.Int63n(1000)
			}
			e.Insert(k)
			live = append(live, k)
		case r < 6:
			k := pick()
			if err := e.Delete(k); err == nil {
				for j, v := range live {
					if v == k {
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
			}
		default:
			old, new := pick(), pick()
			if e.loadPart().Shard(old) != e.loadPart().Shard(new) {
				crossMoves++
			}
			if err := e.UpdateKey(old, new); err == nil {
				for j, v := range live {
					if v == old {
						live[j] = new
						break
					}
				}
			}
		}
	}
	if crossMoves == 0 {
		t.Fatal("stream exercised no cross-shard move")
	}
	for i, s := range e.shards {
		s.jmu.Lock()
		n := len(s.journal)
		s.jmu.Unlock()
		if n == 0 {
			t.Fatalf("shard %d journaled nothing", i)
		}
	}

	// Crash image cut mid-retrain: recovery must reach the same state from
	// checkpoint + WAL as the leader does from snapshot + journal.
	crash := t.TempDir()
	copyDir(t, dir, crash)
	catchUp() // before the post-swap checkpoints prune the tailed segments

	close(gate)
	for range e.shards {
		if err := <-done; err != nil {
			t.Fatalf("retrain: %v", err)
		}
	}
	swaps := 0
	for _, ev := range e.Events(0) {
		if ev.Kind == obs.EvRetrainSwap {
			swaps++
			if !strings.Contains(ev.Note, " 0 replay mismatches") || strings.HasPrefix(ev.Note, "0 journal records") {
				t.Fatalf("retrain.swap note = %q; want a non-empty journal replayed with 0 mismatches", ev.Note)
			}
		}
	}
	if swaps != len(e.shards) {
		t.Fatalf("%d retrain.swap events, want %d", swaps, len(e.shards))
	}

	rcfg := cfg
	rcfg.Dir = crash
	rec, err := New(nil, rcfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	catchUp()
	if n := rec.ReplayMismatches(); n != 0 {
		t.Fatalf("recovery: %d replay mismatches", n)
	}
	if n := rep.Mismatches(); n != 0 {
		t.Fatalf("follower: %d apply mismatches", n)
	}

	want := canonDumps(e)
	if got := canonDumps(rec); !reflect.DeepEqual(got, want) {
		t.Fatal("crash-copy recovery diverged from the post-swap leader")
	}
	if got := canonDumps(boot.Engine); !reflect.DeepEqual(got, want) {
		t.Fatal("caught-up follower diverged from the post-swap leader")
	}
	if got, want := e.Len(), len(live); got != want {
		t.Fatalf("leader Len = %d, stream model holds %d", got, want)
	}
}

// TestRecoverySeedWidthMismatchIsError feeds recovery a RecInsertRow whose
// row is wider than the table's payload, aimed at a shard that recovers
// empty: seeding the one-row table must fail recovery with an error — the
// record was logged against a different schema — not panic, and not pad or
// truncate the row.
func TestRecoverySeedWidthMismatchIsError(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	e, err := New([]int64{7}, cfg) // one key: two of the three shards stay empty
	if err != nil {
		t.Fatal(err)
	}
	empty := (e.loadPart().Shard(7) + 1) % len(e.shards)
	epoch := e.Epoch()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	sdir := shardDir(dir, empty)
	_, lastSeq, err := wal.ReplaySegments(sdir, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.OpenLog(sdir, lastSeq+1, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	bad := wal.Record{Kind: wal.RecInsertRow, Epoch: epoch + 1, Key: 42,
		Row: make([]int32, cfg.Table.PayloadCols+2)}
	if _, err := l.Append(bad); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := New(nil, cfg)
	if err == nil {
		r.Close()
		t.Fatal("recovery accepted a row of the wrong width into an empty shard")
	}
	if !strings.Contains(err.Error(), "payload columns") {
		t.Fatalf("recovery error = %v; want the seeding width mismatch", err)
	}

	// The same record through the live seeding and follower paths.
	s := newShard(0, &Engine{}, cfg.withDefaults())
	if _, err := s.replay(bad); err == nil || s.tbl != nil {
		t.Fatalf("replay onto an empty shard: err=%v tbl=%v; want an error and no table", err, s.tbl)
	}
	if _, err := seedTable(cfg.Table, 42, bad.Row[:cfg.Table.PayloadCols]); err != nil {
		t.Fatalf("seedTable rejected a correctly sized row: %v", err)
	}
}
