package shard

// Durability: per-shard write-ahead logging, chunk checkpoints, and crash
// recovery (the internal/wal subsystem wired into the engine).
//
// Layout of a durable engine directory:
//
//	dir/
//	  MANIFEST.json          shard topology; its presence commits bootstrap
//	  shard-000/
//	    ckpt-00000001.ckpt   newest-valid checkpoint wins at recovery
//	    wal-00000002.log     segments >= the checkpoint's WALSeq are its tail
//	  shard-001/ ...
//
// Writes log with row identity under each shard's jmu (see shard.run): the
// WAL persists the very wal.Records a retrain journal would hold, and
// replaying the tail onto the checkpoint through the shared applier
// (applyRecord) reproduces the live table byte-identically.
// Every row a migration moves (a cross-shard UpdateKey or a rebalance) logs
// one MoveOut/MoveIn record pair inside the migration's publish window;
// recovery reconciles pairs whose halves straddle the crash so a row is never
// restored on zero or two shards.
//
// Checkpoints cut one shard at a single point: under the shard's gate
// stripe (shared — migration windows take every stripe, so no row can stage
// or publish) plus the shard's exclusive swap lock (no writer, no WAL
// append), the WAL is rotated and the table snapshot taken, satisfying
// table.Snapshot's serialize-writers contract.
// Rows staged OUT of the shard by an in-flight migration are folded back in
// at their old key, exactly mirroring reader-side registry compensation
// (boundaries never change while a row is staged, so the shard a row left
// still owns its old key). The checkpoint also records the move-ID horizon:
// every move with a smaller ID fully published before the cut, which
// recovery uses to tell a crashed move half from one whose record was
// legitimately pruned by a checkpoint.
//
// Recovery loads each shard's newest valid checkpoint, restores the trained
// layouts without re-running the solver, merges every shard's WAL tail in
// epoch order (stable, so per-shard append order is preserved), replays with
// row identity, reconciles move pairs, and restores the epoch oracle to the
// highest epoch observed.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"casper/internal/obs"
	"casper/internal/table"
	"casper/internal/wal"
)

// shardDir returns shard i's subdirectory under the engine directory.
func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// openDurable opens a durable engine: recovery when dir holds a committed
// manifest, bootstrap from keys otherwise.
func openDurable(keys []int64, cfg Config) (*Engine, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: creating %s: %w", cfg.Dir, err)
	}
	m, err := wal.LoadManifest(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if m != nil {
		return recoverDurable(cfg, m)
	}
	return bootstrapDurable(keys, cfg)
}

// bootstrapDurable loads keys in memory, then persists the initial state:
// per-shard initial checkpoint + empty WAL segment, manifest last. The
// manifest write is the commit point — a crash before it leaves a directory
// that bootstraps again from scratch, never partial state.
func bootstrapDurable(keys []int64, cfg Config) (*Engine, error) {
	e, err := newInMemory(keys, cfg)
	if err != nil {
		return nil, err
	}
	e.durable = true
	e.dir = cfg.Dir
	e.wopts = wal.Options{Policy: cfg.Sync, Interval: cfg.SyncEvery}
	for i, s := range e.shards {
		s.sdir = shardDir(cfg.Dir, i)
		// The manifest is the commit point, and it does not exist yet (its
		// presence routes to recovery instead), so anything already under the
		// shard directory is debris from a bootstrap that crashed before
		// committing. Clear it: OpenLog refuses to overwrite an existing
		// segment, and a stale one would otherwise wedge every re-bootstrap.
		if err := os.RemoveAll(s.sdir); err != nil {
			return nil, fmt.Errorf("shard: clearing %s: %w", s.sdir, err)
		}
		if err := os.MkdirAll(s.sdir, 0o755); err != nil {
			return nil, fmt.Errorf("shard: creating %s: %w", s.sdir, err)
		}
		opts := e.wopts
		opts.Obs, opts.ObsShard = e.obs, i
		s.log, err = wal.OpenLog(s.sdir, 1, opts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.nextCkpt = 1
	}
	// Checkpoint only once every log exists: a checkpoint flushes all WALs
	// (see checkpointShard), so the fleet must be fully wired first.
	for i := range e.shards {
		if err := e.checkpointShard(i); err != nil {
			return nil, fmt.Errorf("shard %d: initial checkpoint: %w", i, err)
		}
	}
	if err := e.rewriteManifest(); err != nil {
		return nil, err
	}
	return e, nil
}

// moveTrace accumulates the observed halves of one cross-shard move during
// replay, keyed by MoveID.
type moveTrace struct {
	out, in  bool
	old, new int64
	row      []int32
}

// persisted is what a committed engine directory yields before any WAL
// record is applied: the engine skeleton with one shard per manifest entry,
// each loaded from its newest valid checkpoint — rows, payloads AND trained
// layouts, so no solver run is needed — plus the checkpoints' verdict on the
// epoch, the move-ID horizon and the newest boundary set. Crash recovery
// replays the WAL tails on top of it; a follower tails them live.
type persisted struct {
	e                 *Engine
	cps               []*wal.Checkpoint // per shard
	bounds            []int64           // boundary set carried by the highest epoch so far
	boundsEpoch       uint64
	maxEpoch, maxMove uint64
}

// loadPersisted reads the manifest's shards from their newest checkpoints.
// It only reads: nothing under cfg.Dir is created, truncated or deleted, so
// it is safe against a directory a live leader is writing.
func loadPersisted(cfg Config, man *wal.Manifest, e *Engine) (*persisted, error) {
	cfg = cfg.withDefaults()
	e.cfg, e.epoch, e.dir = cfg.Table, cfg.Epoch, cfg.Dir
	e.keyLo, e.keyHi = man.KeyLo, man.KeyHi
	p := &persisted{e: e, bounds: man.Bounds}
	for i := 0; i < man.Shards; i++ {
		s := newShard(i, e, cfg)
		s.sdir = shardDir(cfg.Dir, i)
		cp, cseq, err := wal.LoadNewestCheckpoint(s.sdir)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if cp == nil {
			// Bootstrap writes a checkpoint for every shard before the
			// manifest commits, so a manifest without one means corruption
			// or deletion; loading the shard as empty would silently drop
			// its pre-checkpoint rows (they were never in the WAL).
			return nil, fmt.Errorf("shard %d: no valid checkpoint in %s", i, s.sdir)
		}
		s.nextCkpt = cseq + 1
		p.maxEpoch = max(p.maxEpoch, cp.Epoch)
		p.maxMove = max(p.maxMove, cp.MoveHorizon)
		if man.ByRange && len(cp.Bounds) > 0 && cp.Epoch >= p.boundsEpoch {
			p.bounds, p.boundsEpoch = cp.Bounds, cp.Epoch
		}
		if len(cp.Keys) > 0 {
			tbl, err := table.NewFromRows(cp.Keys, cp.Rows, cfg.Table)
			if err != nil {
				return nil, fmt.Errorf("shard %d: checkpoint load: %w", i, err)
			}
			if err := tbl.RestoreLayouts(toTableLayouts(cp.Layouts)); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			s.tbl = tbl
		}
		p.cps = append(p.cps, cp)
		e.shards = append(e.shards, s)
	}
	return p, nil
}

// install routes the engine by the resolved boundary set and restores the
// epoch oracle and move-ID counter past everything observed.
func (p *persisted) install(man *wal.Manifest) error {
	var part Partitioner
	if man.ByRange {
		part = RangePartitionerFromBounds(p.bounds)
	} else {
		part = NewHashPartitioner(man.Shards)
	}
	if part.Shards() != man.Shards {
		return fmt.Errorf("shard: persisted bounds yield %d shards, manifest declares %d", part.Shards(), man.Shards)
	}
	p.e.initRoute(part)
	p.e.epoch.AdvanceTo(p.maxEpoch)
	p.e.moveSeq.Store(p.maxMove)
	return nil
}

// recoverDurable rebuilds the engine from dir: newest valid checkpoint per
// shard, WAL tail replayed in epoch order (torn final records tolerated and
// trimmed), move pairs reconciled, epoch oracle restored.
//
// Boundary resolution: a rebalance changes the range-partitioner bounds at
// runtime and persists them in three places — the manifest (rewritten after
// the WAL commits), every checkpoint (schema v2), and a RecRebalance record
// in every shard's WAL tail. A crash can strand these sources at different
// ages, so recovery installs the boundary set carried by the highest epoch
// across all of them (the manifest counts as epoch 0 baseline) and then
// re-homes any row that ended up on a shard that no longer owns its key —
// whatever interleaving the crash cut, the engine lands on exactly one
// consistent boundary set with every row on exactly one, correct shard.
func recoverDurable(cfg Config, man *wal.Manifest) (*Engine, error) {
	e := &Engine{durable: true, wopts: wal.Options{Policy: cfg.Sync, Interval: cfg.SyncEvery}}
	p, err := loadPersisted(cfg, man, e)
	if err != nil {
		return nil, err
	}
	var all []ReplicatedRecord
	horizons := make([]uint64, man.Shards) // per-shard checkpoint move horizon
	newSeqs := make([]uint64, man.Shards)  // fresh WAL segment per shard
	for i, s := range e.shards {
		horizons[i] = p.cps[i].MoveHorizon
		fromSeq := p.cps[i].WALSeq
		recs, lastSeq, err := wal.ReplaySegments(s.sdir, fromSeq)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		for _, r := range recs {
			all = append(all, ReplicatedRecord{Shard: i, Rec: r})
			if r.Kind == wal.RecRebalance && man.ByRange && len(r.Bounds) > 0 && r.Epoch >= p.boundsEpoch {
				p.bounds, p.boundsEpoch = r.Bounds, r.Epoch
			}
		}
		newSeqs[i] = max(lastSeq+1, fromSeq)
	}

	// Install the resolved partitioner before replay: replay itself applies
	// records by the WAL file they came from (placement history, not
	// routing), but move reconciliation and the re-homing sweep below route
	// by it.
	if err := p.install(man); err != nil {
		return nil, err
	}
	sortByEpoch(all)
	ap := &applier{e: e, moves: make(map[uint64]*moveTrace), maxEpoch: p.maxEpoch, maxMove: p.maxMove}
	for _, sr := range all {
		if err := ap.apply(sr.Shard, sr.Rec); err != nil {
			return nil, err
		}
	}
	if err := ap.reconcile(horizons); err != nil {
		return nil, err
	}
	if err := e.rehomeRecovered(); err != nil {
		return nil, err
	}
	e.replayMismatches = ap.mismatches

	e.epoch.AdvanceTo(ap.maxEpoch)
	e.moveSeq.Store(ap.maxMove)
	for i, s := range e.shards {
		opts := e.wopts
		opts.Obs, opts.ObsShard = e.obs, i
		log, err := wal.OpenLog(s.sdir, newSeqs[i], opts)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.log = log
	}
	// The replay summary is journaled unconditionally (events are not gated
	// on Enabled) so the first reader to attach still sees how this engine
	// came up. A non-zero mismatch count means some records named rows this
	// replay timeline never produced — the image silently diverged from the
	// WAL; ReplayMismatches exposes the same count programmatically.
	e.obs.Event(obs.Event{Kind: obs.EvRecoveryReplay, Shard: -1, Epoch: ap.maxEpoch, Rows: len(all),
		Note: fmt.Sprintf("%d shards, %d move traces reconciled, %d replay mismatches",
			man.Shards, len(ap.moves), ap.mismatches)})
	return e, nil
}

// toTableLayouts converts persisted chunk layouts to the table form.
func toTableLayouts(in []wal.ChunkLayout) []table.ChunkLayout {
	out := make([]table.ChunkLayout, len(in))
	for i, cl := range in {
		out[i] = table.ChunkLayout{Trained: cl.Trained, Blocks: cl.Blocks, Ghosts: cl.Ghosts}
	}
	return out
}

// rehomeRecovered moves every recovered row onto the shard that owns its key
// under the resolved partitioner — the universal repair for crashes that
// split a rebalance's bulk moves from its boundary record. Whichever side of
// the rebalance the resolved bounds landed on, the sweep makes row placement
// agree with them; it is a no-op on hash-partitioned engines and on any
// crash image whose moves and bounds survived together. Single-threaded
// recovery context: no locks.
func (e *Engine) rehomeRecovered() error {
	if _, ok := e.loadPart().(*RangePartitioner); !ok {
		return nil
	}
	p := e.loadPart()
	for i, s := range e.shards {
		if s.tbl == nil {
			continue
		}
		var misplaced []int64
		for _, k := range s.tbl.Keys() {
			if p.Shard(k) != i {
				misplaced = append(misplaced, k)
			}
		}
		for _, k := range misplaced {
			row, err := s.tbl.TakeRow(k)
			if err != nil {
				continue
			}
			if _, err := e.shards[p.Shard(k)].replay(wal.Record{Kind: wal.RecInsertRow, Key: k, Row: row}); err != nil {
				return fmt.Errorf("shard %d: %w", p.Shard(k), err)
			}
		}
	}
	return nil
}

// rewriteManifest atomically re-persists the engine topology; called after a
// rebalance commits its WAL records so the manifest carries the new boundary
// set for the next bootstrap-free recovery.
func (e *Engine) rewriteManifest() error {
	man := &wal.Manifest{Shards: len(e.shards), KeyLo: e.keyLo, KeyHi: e.keyHi}
	if rp, ok := e.loadPart().(*RangePartitioner); ok {
		man.ByRange = true
		man.Bounds = rp.Bounds()
	}
	if err := wal.WriteManifest(e.dir, man); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// PendingMove describes one staged row of an in-flight migration: the row
// has been taken from its source shard but not yet published at its
// destination; readers serve it from the registry at Old.
type PendingMove struct {
	Old, New int64
}

// PendingMoves returns the rows an in-flight migration has staged.
// Checkpoints fold these rows back into their source shard at Old, so a
// checkpoint cut while a move is staged never persists the row on zero or
// two shards.
func (e *Engine) PendingMoves() []PendingMove {
	e.rlockAll()
	defer e.runlockAll()
	moves := e.loadRoute().moves.byOld
	out := make([]PendingMove, len(moves))
	for i, m := range moves {
		out[i] = PendingMove{Old: m.old, New: m.new}
	}
	return out
}

// Checkpoint persists every shard's current state and truncates the WAL at
// the checkpoint boundaries. No-op on in-memory engines.
func (e *Engine) Checkpoint() error {
	if !e.durable {
		return nil
	}
	for i := range e.shards {
		if err := e.checkpointShard(i); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// checkpointShard cuts shard i at a single point and persists it: under the
// shard's gate stripe (shared) and its exclusive swap lock, the WAL rotates to
// a fresh segment and the snapshot is taken — no writer, no WAL append, no
// move stage/publish can interleave, so checkpoint + tail replay is exact.
// Rows staged out of this shard by in-flight moves are folded back in at
// their old key (registry compensation), and the recorded move horizon lets
// recovery distinguish crashed move halves from checkpoint-pruned ones. The
// checkpoint file is written and old segments pruned after the locks drop —
// the snapshot is already immutable.
func (e *Engine) checkpointShard(i int) error {
	s := e.shards[i]
	if s.log == nil {
		return fmt.Errorf("shard: checkpoint of non-durable shard %d", i)
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	// Holding any single stripe shared excludes every move-gate transition
	// (they take all stripes exclusively), so this shard's own stripe is
	// enough to freeze the snapshot fleet-wide — checkpoints of different
	// shards no longer contend on one gate.
	e.stripes[i].mu.RLock()
	s.mu.Lock()
	newSeq, err := s.log.Rotate()
	if err != nil {
		s.mu.Unlock()
		e.stripes[i].mu.RUnlock()
		return err
	}
	cp := &wal.Checkpoint{
		Epoch:       e.epoch.Now(),
		WALSeq:      newSeq,
		MoveHorizon: e.moveSeq.Load(),
	}
	// The snapshot is stable under the held stripe (a rebalance installs a
	// new partitioner only while holding every stripe exclusively), so the
	// bounds and the staged-move attribution below are consistent with the
	// cut.
	v := e.loadRoute()
	p := v.part
	if rp, ok := p.(*RangePartitioner); ok {
		cp.Bounds = rp.Bounds()
	}
	if s.tbl != nil {
		cp.Keys, cp.Rows = s.tbl.Snapshot()
		cp.Layouts = fromTableLayouts(s.tbl.ChunkLayouts())
	}
	for _, m := range v.moves.byOld {
		if m.src == i {
			cp.Keys, cp.Rows = insertSorted(cp.Keys, cp.Rows, m.old, m.row)
		}
	}
	s.mu.Unlock()
	e.stripes[i].mu.RUnlock()

	// The checkpoint's move horizon asserts that every move with id <=
	// MoveHorizon is durable; its pruning destroys this shard's halves of
	// those moves' record pairs. Both are only sound once the OTHER shards'
	// halves are on stable storage — under Sync=none/interval they may
	// still be sitting in the page cache — so flush every WAL before the
	// checkpoint itself becomes durable. (Moves with larger ids publish
	// after the cut and are covered by reconciliation, not the horizon.)
	if err := e.SyncWAL(); err != nil {
		return err
	}

	seq := s.nextCkpt
	if err := wal.WriteCheckpoint(s.sdir, seq, cp); err != nil {
		return err
	}
	s.nextCkpt = seq + 1
	wal.Prune(s.sdir, seq, newSeq)
	// Lifecycle events are emitted here, after every shard/journal lock has
	// dropped, per the lock-order contract in the package comment.
	if e.obs.Enabled() {
		e.obs.Checkpoints.Inc(i)
	}
	e.obs.Event(obs.Event{Kind: obs.EvWALRoll, Shard: i, Note: fmt.Sprintf("segment %d opened", newSeq)})
	e.obs.Event(obs.Event{Kind: obs.EvCheckpointCut, Shard: i, Epoch: cp.Epoch, Rows: len(cp.Keys)})
	e.obs.Event(obs.Event{Kind: obs.EvCheckpointPrune, Shard: i,
		Note: fmt.Sprintf("checkpoint %d, segments < %d pruned", seq, newSeq)})
	return nil
}

// fromTableLayouts converts table chunk layouts to the persisted form.
func fromTableLayouts(in []table.ChunkLayout) []wal.ChunkLayout {
	out := make([]wal.ChunkLayout, len(in))
	for i, cl := range in {
		out[i] = wal.ChunkLayout{Trained: cl.Trained, Blocks: cl.Blocks, Ghosts: cl.Ghosts}
	}
	return out
}

// insertSorted splices (key, row) into keys-ascending parallel slices.
func insertSorted(keys []int64, rows [][]int32, key int64, row []int32) ([]int64, [][]int32) {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] > key })
	return slices.Insert(keys, i, key), slices.Insert(rows, i, row)
}

// SyncWAL forces every shard's WAL to stable storage regardless of the sync
// policy — a durability barrier for callers running with SyncNone or
// SyncInterval.
func (e *Engine) SyncWAL() error {
	if !e.durable {
		return nil
	}
	for i, s := range e.shards {
		if s.log == nil {
			continue
		}
		if err := s.log.Sync(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
