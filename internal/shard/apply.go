package shard

// One record, one applier. applyRecord is the only code that turns a
// wal.Record into a table mutation, and every consumer of a record stream
// reaches it: a shadow retrain draining its journal onto the shadow table
// before the swap (retrain.go), crash recovery replaying WAL tails onto
// checkpoints (durable.go), and live WAL-shipping replication applying
// polled tails to a follower (internal/replica). The journal holds the same
// records the WAL carries, so the three are one replay path — transactional
// updates reach every copy of a table through one update-application
// routine, not one per consumer.
//
// Recovery and replication additionally consume per-shard streams merged
// into one epoch order, applying each record to the shard whose WAL carried
// it — physical placement history, not routing — so per-shard append order
// is preserved and the replayed image is byte-identical to the table the
// records were logged against. The two differ only in pair repair. Recovery
// sees a stream cut by a crash, so a MoveOut/MoveIn pair can be torn
// mid-pair; it traces pairs and reconciles stragglers against checkpoint
// move horizons. A live follower's stream is never torn — a missing pair
// half only happens when the bootstrap checkpoint already covers it, which
// needs no repair — so it applies with tracing disabled.

import (
	"fmt"
	"sort"

	"casper/internal/table"
	"casper/internal/wal"
)

// applyRecord replays one record onto t. Deletes, updates and move-outs
// resolve duplicate keys by payload (row identity), so replay order across
// non-conflicting writers is immaterial. It reports false when the record
// named a (key, payload) t does not hold — the replayed timeline never
// produced that row, so t has diverged from the stream; callers count these
// and surface the count (retrain.swap, recovery.replay, Replicator.Mismatches).
func applyRecord(t *table.Table, r wal.Record) bool {
	switch r.Kind {
	case wal.RecInsert:
		t.Insert(r.Key)
	case wal.RecInsertRow:
		t.InsertRow(r.Key, r.Row)
	case wal.RecMoveIn:
		t.InsertRow(r.Key2, r.Row)
	case wal.RecDelete, wal.RecMoveOut:
		return t.DeleteRowExact(r.Key, r.Row) == nil
	case wal.RecUpdate:
		if t.DeleteRowExact(r.Key, r.Row) != nil {
			return false
		}
		t.InsertRow(r.Key2, r.Row)
	}
	return true
}

// replay applies r to the shard's table with no locking, journaling or
// logging of its own — the caller owns the shard (recovery is
// single-threaded; a follower and the rebalance publish window hold every
// lock). An empty shard is seeded from the row r inserts; a removal against
// an empty shard is a mismatch. The error is a seeding failure (seedTable).
func (s *shard) replay(r wal.Record) (matched bool, err error) {
	if s.tbl != nil {
		return applyRecord(s.tbl, r), nil
	}
	key := r.Key
	switch r.Kind {
	case wal.RecInsert, wal.RecInsertRow:
	case wal.RecMoveIn:
		key = r.Key2
	default:
		return false, nil
	}
	s.tbl, err = seedTable(s.cfg, key, r.Row)
	return err == nil, err
}

// applier applies one epoch-ordered record stream to the engine's shards.
// Single-threaded; the caller provides any locking the engine's liveness
// requires (none during recovery, the move gate during live replication).
type applier struct {
	e     *Engine
	moves map[uint64]*moveTrace // MoveOut/MoveIn pair traces; nil disables tracing
	// mismatches counts records applyRecord reported as naming a row the
	// replayed timeline never produced: the rebuilt image has silently
	// diverged from the WAL. Surfaced, not fatal — the one row is lost
	// either way, and the rest of the replay is still the best available
	// image.
	mismatches int
	maxEpoch   uint64
	maxMove    uint64
}

// apply replays one WAL record onto shard si, tracing move pairs when
// enabled.
func (a *applier) apply(si int, r wal.Record) error {
	if r.Epoch > a.maxEpoch {
		a.maxEpoch = r.Epoch
	}
	if r.MoveID > a.maxMove {
		a.maxMove = r.MoveID
	}
	switch {
	case r.Kind == wal.RecRebalance:
		return nil // carries bounds, not a row; the stream's consumer installs them
	case a.moves != nil && r.Kind == wal.RecMoveOut:
		a.traceFor(r).out = true
	case a.moves != nil && r.Kind == wal.RecMoveIn:
		a.traceFor(r).in = true
	}
	matched, err := a.e.shards[si].replay(r)
	if err != nil {
		return fmt.Errorf("shard %d: %w", si, err)
	}
	if !matched {
		a.mismatches++
	}
	return nil
}

func (a *applier) traceFor(r wal.Record) *moveTrace {
	mv := a.moves[r.MoveID]
	if mv == nil {
		mv = &moveTrace{old: r.Key, new: r.Key2, row: r.Row}
		a.moves[r.MoveID] = mv
	}
	return mv
}

// reconcile repairs cross-shard moves whose record pair did not survive the
// crash intact, so every moved row lands on exactly one shard:
//
//   - MoveOut without MoveIn: if the destination shard checkpointed past
//     this move ID, the insert is inside its checkpoint and the MoveIn was
//     pruned — nothing to do. Otherwise the crash lost the destination half:
//     the move never became durable, so the row returns to its old key.
//   - MoveIn without MoveOut: if the source shard checkpointed past this
//     move ID, its checkpoint already excludes the row — nothing to do.
//     Otherwise the crash lost the source half: the move IS durable (the
//     destination insert survived), so the stale copy at the old key is
//     removed.
//
// The horizon test is sound because move IDs are allocated inside the
// publish window, which holds the move gate exclusively: a checkpoint (gate
// shared) with horizon >= id can only be cut after move id fully published.
//
// Rebalance bulk moves (Key == Key2) reconcile through the same table: their
// src and dst collapse onto the key's owner under the recovered bounds, so a
// half-pair repair may touch the "wrong" physical shard — row-identity
// deletes remove at most the one stale copy, and the re-homing sweep that
// follows moves whichever copy survived onto its owner, so every row still
// lands on exactly one shard. For the same reason a failed finish-the-move
// delete on a bulk move is expected (the stale copy may already be gone) and
// only genuine moves (old != new) count as mismatches.
func (a *applier) reconcile(horizons []uint64) error {
	e := a.e
	p := e.loadPart()
	for id, mv := range a.moves {
		if mv.out == mv.in {
			continue // intact pair (or impossible empty trace)
		}
		src := p.Shard(mv.old)
		dst := p.Shard(mv.new)
		if mv.out && id > horizons[dst] {
			// Destination half lost in the crash: undo the move.
			if _, err := e.shards[src].replay(wal.Record{Kind: wal.RecInsertRow, Key: mv.old, Row: mv.row}); err != nil {
				return fmt.Errorf("shard %d: %w", src, err)
			}
		}
		if mv.in && id > horizons[src] {
			// Source half lost in the crash: finish the move.
			matched, _ := e.shards[src].replay(wal.Record{Kind: wal.RecDelete, Key: mv.old, Row: mv.row})
			if !matched && mv.old != mv.new {
				a.mismatches++
			}
		}
	}
	return nil
}

// ReplayMismatches returns the number of WAL records whose row-identity
// delete failed during this engine's recovery replay — silent divergence
// between the WAL and the rebuilt image, also surfaced in the
// recovery.replay journal event's note. Zero on cleanly recovered and
// in-memory engines.
func (e *Engine) ReplayMismatches() int { return e.replayMismatches }

// ReplicatedRecord is one WAL record tagged with the shard whose WAL carried
// it, the unit a replication stream ships.
type ReplicatedRecord struct {
	Shard int
	Rec   wal.Record
}

// sortByEpoch merges per-shard WAL tails into one epoch-ordered stream, in
// place. Epoch stamps are non-decreasing within one shard's WAL (appends and
// stamps share jmu), so a stable sort preserves per-shard append order.
func sortByEpoch(recs []ReplicatedRecord) {
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].Rec.Epoch < recs[b].Rec.Epoch })
}

// Replicator applies a live replication stream to a follower engine. Create
// one with NewReplicator on an engine built by NewFollower; Apply is not
// safe for concurrent use (one apply loop per follower).
type Replicator struct {
	e           *Engine
	boundsEpoch uint64
	ap          applier
}

// NewReplicator returns a Replicator for e. boundsEpoch is the epoch of the
// boundary set currently installed (FollowerBoot.BoundsEpoch); RecRebalance
// records at or below it are already reflected in the routing and are
// skipped.
func (e *Engine) NewReplicator(boundsEpoch uint64) *Replicator {
	return &Replicator{e: e, boundsEpoch: boundsEpoch, ap: applier{e: e}}
}

// applyWindow bounds how many records one exclusive move-gate window
// applies, so a follower catching up on a deep backlog still lets readers
// through between windows.
const applyWindow = 8192

// Apply merges recs into epoch order and applies them to the engine's
// shards, and installs each RecRebalance boundary set newer than the one
// already routed. It holds every gate stripe exclusively while applying (in bounded
// windows), so View-consistent readers never observe a half-applied window,
// and advances the engine's epoch oracle to the highest epoch applied.
// Returns the number of records applied; an error (an empty shard could not
// be seeded from a record) stops the stream at the failing window.
func (r *Replicator) Apply(recs []ReplicatedRecord) (int, error) {
	e := r.e
	sortByEpoch(recs)
	applied := 0
	for len(recs) > 0 {
		window := recs
		if len(window) > applyWindow {
			window = window[:applyWindow]
		}
		recs = recs[len(window):]
		e.lockAll()
		var aerr error
		for _, sr := range window {
			if sr.Rec.Kind == wal.RecRebalance && len(sr.Rec.Bounds) > 0 && sr.Rec.Epoch > r.boundsEpoch {
				if _, ok := e.loadPart().(*RangePartitioner); ok {
					e.publishRoute(RangePartitionerFromBounds(sr.Rec.Bounds), emptyMoves)
					r.boundsEpoch = sr.Rec.Epoch
				}
			}
			if aerr = r.ap.apply(sr.Shard, sr.Rec); aerr != nil {
				break
			}
		}
		e.epoch.AdvanceTo(r.ap.maxEpoch)
		if r.ap.maxMove > e.moveSeq.Load() {
			e.moveSeq.Store(r.ap.maxMove)
		}
		e.unlockAll()
		if aerr != nil {
			return applied, aerr
		}
		applied += len(window)
		// Replica metrics are ungated (see obs.Registry): lag and progress
		// must be observable before any reader calls Enable.
		e.obs.ReplicaRecordsApplied.Add(0, uint64(len(window)))
		e.obs.ReplicaAppliedEpoch.Set(r.ap.maxEpoch)
	}
	return applied, nil
}

// Mismatches returns the count of records whose row-identity delete failed
// during live apply — divergence between the stream and the follower image.
func (r *Replicator) Mismatches() int { return r.ap.mismatches }

// FollowerBoot is the result of bootstrapping a follower engine from a
// leader's directory: the read-only engine, the WAL segment each shard's
// tailer must start from, and the epoch of the boundary set installed.
type FollowerBoot struct {
	Engine      *Engine
	FromSeqs    []uint64
	BoundsEpoch uint64
}

// NewFollower builds a read-only engine from the newest checkpoint of every
// shard in cfg.Dir, which may belong to a live leader — it reads the
// manifest and checkpoint files only, never opens a WAL for writing, and
// never truncates or deletes anything. The engine starts at the checkpoints'
// state; the caller catches it up by tailing each shard's segments from
// FromSeqs[i] (wal.OpenTailer) and feeding a Replicator.
//
// Unlike recovery it does not replay WAL tails, reconcile move pairs, or
// re-home rows: the tail replay is the follower's steady state, and applying
// it by physical placement converges the image without repair (see the file
// comment). Between bootstrap and catch-up a row that moved shards may be
// transiently visible on zero or two shards; convergence holds once the
// tailers drain.
func NewFollower(cfg Config) (*FollowerBoot, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shard: follower requires a directory")
	}
	man, err := wal.LoadManifest(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if man == nil {
		return nil, fmt.Errorf("shard: no manifest in %s (nothing to follow)", cfg.Dir)
	}
	p, err := loadPersisted(cfg, man, &Engine{readonly: true})
	if err != nil {
		return nil, err
	}
	if err := p.install(man); err != nil {
		return nil, err
	}
	fromSeqs := make([]uint64, man.Shards)
	for i, cp := range p.cps {
		fromSeqs[i] = cp.WALSeq
	}
	p.e.obs.ReplicaAppliedEpoch.Set(p.maxEpoch)
	return &FollowerBoot{Engine: p.e, FromSeqs: fromSeqs, BoundsEpoch: p.boundsEpoch}, nil
}

// WALDir returns shard i's WAL directory under an engine directory — the
// path a replication tailer (wal.OpenTailer) reads from.
func WALDir(dir string, i int) string { return shardDir(dir, i) }

// ShardDump is one shard's physical contents, keys ascending with parallel
// payload rows.
type ShardDump struct {
	Keys []int64
	Rows [][]int32
}

// DumpShards snapshots every shard's physical contents — the divergence
// suites' ground truth for comparing a leader and a caught-up follower.
// Staged cross-shard moves are not folded in, so compare only after writes
// quiesce and pending moves drain.
func (e *Engine) DumpShards() []ShardDump {
	e.rlockAll()
	defer e.runlockAll()
	out := make([]ShardDump, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		if s.tbl != nil {
			out[i].Keys, out[i].Rows = s.tbl.Snapshot()
		}
		s.mu.Unlock()
	}
	return out
}
