package shard

// Row migration and drift-triggered shard rebalancing. stage and publish are
// the two windows of the one row-migration protocol (see the package
// comment's "Row migration" section): a cross-shard UpdateKey runs them for
// one row, a rebalance — the sharded analogue of re-partitioning inside a
// shard — for every row whose owner changes under new boundaries. A detector
// watches per-shard row-count skew and the write rate observed by the
// retrain monitors; when the key distribution has drifted onto one end of
// the range, ProposeMinimalBounds re-splits only the shards breaching the
// skew bound plus the neighbors absorbing their load, leaving every other
// boundary bit-identical. Whatever the boundaries, the migration is planned
// from the ownership delta (ownershipDelta): only rows inside intervals
// whose owner actually changes are staged, and the publish-window straggler
// rescan walks just those intervals through the table's bounded iterator
// (KeysInRange) instead of every live key — so both migration volume and
// the exclusive-window pause scale with the drift the layout absorbs, not
// with the table size.
//
// Durability: migrated rows are WAL-logged as MoveOut/MoveIn pairs (Key ==
// Key2 for a rebalance) and a boundary change as one RecRebalance record per
// shard, all stamped with the publish epoch; a rebalance then rewrites the
// manifest and cuts a checkpoint, so recovery resolves the newest boundary set from
// whichever source survived (manifest, checkpoint, or WAL tail) and a
// re-homing sweep lands every row on its owner under that set — a crash at
// any byte offset mid-rebalance recovers to exactly one consistent boundary
// set (durable.go).

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"casper/internal/obs"
	"casper/internal/table"
	"casper/internal/wal"
)

// stageBatch is the number of rows parked in the staged-move registry per
// exclusive move-gate window while a rebalance stages; readers run (with
// registry compensation) between batches, bounding the per-window pause.
const stageBatch = 1024

// defaultMaxSkew is the max/mean row-count ratio that triggers (and scopes
// the proposal of) a rebalance when no policy overrides it.
const defaultMaxSkew = 1.5

// RebalancePolicy tunes the background auto-rebalancer (StartAutoRebalance).
// Zero fields select defaults.
type RebalancePolicy struct {
	// CheckEvery is the skew check cadence (default 200ms).
	CheckEvery time.Duration
	// MaxSkew triggers a rebalance when the max/mean shard row-count ratio
	// reaches this value (default 1.5). 1 means perfectly balanced.
	MaxSkew float64
	// MinRows is the minimum total row count before rebalancing is
	// considered (default 1024): tiny fleets are always "skewed".
	MinRows int
	// MinOps is the minimum number of operations the shard monitors must
	// observe between rebalances (default 256), so an idle engine is never
	// rebalanced on stale skew.
	MinOps int
}

func (p RebalancePolicy) withDefaults() RebalancePolicy {
	if p.CheckEvery <= 0 {
		p.CheckEvery = 200 * time.Millisecond
	}
	if p.MaxSkew <= 0 {
		p.MaxSkew = defaultMaxSkew
	}
	if p.MinRows <= 0 {
		p.MinRows = 1024
	}
	if p.MinOps <= 0 {
		p.MinOps = 256
	}
	return p
}

// RebalanceResult reports one boundary re-split.
type RebalanceResult struct {
	// Moved is the number of rows migrated between shards.
	Moved int
	// Stragglers is the subset of Moved caught by the publish-window rescan
	// of the changed ownership intervals: writes that landed between the
	// staging batches under the old routing.
	Stragglers int
	// OldBounds and NewBounds are the boundary sets before and after.
	OldBounds, NewBounds []int64
	// SkewBefore and SkewAfter are the max/mean shard row-count ratios
	// around the rebalance.
	SkewBefore, SkewAfter float64
	// Pause is the duration of the exclusive publish+install window, during
	// which readers and writers were blocked.
	Pause time.Duration
}

// RowCounts returns the physical live-row count of every shard (rows staged
// in the move registry are not attributed); the input of the skew detector.
func (e *Engine) RowCounts() []int {
	e.rlockAll()
	defer e.runlockAll()
	counts := make([]int, len(e.shards))
	for i, s := range e.shards {
		s.read(func(t *table.Table) { counts[i] = t.Len() })
	}
	return counts
}

// Skew returns the current max/mean shard row-count ratio (1 = perfectly
// balanced; an empty engine reports 1).
func (e *Engine) Skew() float64 { return skewOf(e.RowCounts()) }

// skewOf is the max/mean row-count ratio over the shard fleet.
func skewOf(counts []int) float64 {
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 || len(counts) == 0 {
		return 1
	}
	return float64(max) * float64(len(counts)) / float64(total)
}

// liveKeys snapshots every live key across the fleet, staged moves included
// (at their old key), for boundary proposals. Keys land in no particular
// order; staleness against concurrent writers only shifts the proposed
// quantiles, never correctness.
func (e *Engine) liveKeys() []int64 {
	e.rlockAll()
	defer e.runlockAll()
	var keys []int64
	for _, s := range e.shards {
		s.read(func(t *table.Table) { keys = append(keys, t.Keys()...) })
	}
	for _, m := range e.loadRoute().moves.byOld {
		keys = append(keys, m.old)
	}
	return keys
}

// Rebalance proposes fresh boundaries from the current key distribution
// (ProposeMinimalBounds) and migrates rows so every shard owns its new range
// — a no-op (Moved == 0) when no shard breaches the skew bound, when the
// proposal matches the installed bounds, or when the engine holds no rows.
// Concurrent reads keep flowing (and observe every row exactly once) except
// during the bounded stage windows and the single publish+install window
// (reported as Pause). Writes keep flowing too: a cross-shard UpdateKey of a
// row parked in the staged-move registry waits for the install and then
// moves the row, while a Delete or same-shard UpdateKey of a parked row
// fails with "absent key" — the row is readable but not writable until the
// publish installs it, so such callers retry after the rebalance.
// Requires range partitioning.
//
// On a durable engine the boundary change and bulk moves are WAL-logged, the
// manifest rewritten, and a checkpoint cut; a returned error after a
// non-zero Moved reports lost durability, not a lost rebalance — the new
// boundaries are installed in memory either way.
func (e *Engine) Rebalance() (RebalanceResult, error) { return e.rebalance(0) }

// rebalance runs one proposal-driven rebalance; maxSkew <= 0 selects
// defaultMaxSkew (the auto-rebalance worker passes its policy's threshold so
// the proposer and the trigger agree on what "breaching" means).
func (e *Engine) rebalance(maxSkew float64) (RebalanceResult, error) {
	if e.readonly {
		return RebalanceResult{}, ErrReadOnly
	}
	if _, ok := e.loadPart().(*RangePartitioner); !ok {
		return RebalanceResult{}, fmt.Errorf("shard: rebalance requires range partitioning")
	}
	if maxSkew <= 0 {
		maxSkew = defaultMaxSkew
	}
	e.rebalanceMu.Lock()
	defer e.rebalanceMu.Unlock()
	keys := e.liveKeys()
	old := e.loadPart().(*RangePartitioner).Bounds()
	if len(keys) == 0 {
		return RebalanceResult{OldBounds: old, NewBounds: old, SkewBefore: 1, SkewAfter: 1}, nil
	}
	return e.rebalanceLocked(ProposeMinimalBounds(keys, old, maxSkew))
}

// RebalanceTo migrates rows onto an explicit boundary set (strictly
// increasing, exactly Shards()-1 entries) — manual resharding, and the
// deterministic entry point the test suites drive. Requires range
// partitioning.
func (e *Engine) RebalanceTo(bounds []int64) (RebalanceResult, error) {
	if e.readonly {
		return RebalanceResult{}, ErrReadOnly
	}
	if _, ok := e.loadPart().(*RangePartitioner); !ok {
		return RebalanceResult{}, fmt.Errorf("shard: rebalance requires range partitioning")
	}
	if len(bounds) != len(e.shards)-1 {
		return RebalanceResult{}, fmt.Errorf("shard: RebalanceTo needs %d boundaries for %d shards, got %d",
			len(e.shards)-1, len(e.shards), len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return RebalanceResult{}, fmt.Errorf("shard: RebalanceTo bounds must be strictly increasing, got %d after %d",
				bounds[i], bounds[i-1])
		}
	}
	e.rebalanceMu.Lock()
	defer e.rebalanceMu.Unlock()
	return e.rebalanceLocked(append([]int64(nil), bounds...))
}

// changedBounds counts the boundary entries that differ between two
// equal-length bound sets (journal-event detail for minimal proposals).
func changedBounds(a, b []int64) int {
	if len(a) != len(b) {
		return len(b)
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// rebalanceLocked migrates every row whose owner changes onto newBounds —
// stage in batches, then one publish that installs the bounds; caller holds
// rebalanceMu and has validated that the engine is range-partitioned.
func (e *Engine) rebalanceLocked(newBounds []int64) (RebalanceResult, error) {
	res := RebalanceResult{
		OldBounds: e.loadPart().(*RangePartitioner).Bounds(),
		NewBounds: newBounds,
	}
	res.SkewBefore = skewOf(e.RowCounts())
	if slices.Equal(res.OldBounds, newBounds) {
		res.SkewAfter = res.SkewBefore
		return res, nil
	}
	newPart := RangePartitionerFromBounds(newBounds)
	if newPart.Shards() != len(e.shards) {
		return res, fmt.Errorf("shard: proposed bounds yield %d shards, engine has %d", newPart.Shards(), len(e.shards))
	}
	e.obs.Event(obs.Event{Kind: obs.EvRebalancePropose, Shard: -1,
		Note: fmt.Sprintf("skew %.2f, %d of %d bounds changing", res.SkewBefore, changedBounds(res.OldBounds, newBounds), len(newBounds))})

	// The migration plan is the ownership delta: the key intervals whose
	// owner differs between the old and new bounds, grouped by the shard
	// that loses them. Rows outside these intervals keep their owner, so
	// neither the staging scan below nor the publish-window straggler
	// rescan ever visits them — with a minimal proposal most boundaries are
	// bit-identical and both scans touch O(drift) keys, not O(table).
	losing := make([][]keyInterval, len(e.shards))
	for _, iv := range ownershipDelta(res.OldBounds, newBounds) {
		losing[iv.from] = append(losing[iv.from], iv)
	}

	// Stage every row whose owner changes (old key == new key) in bounded
	// windows; readers run between batches and serve staged rows from the
	// registry, so each row stays visible exactly once throughout.
	e.migrateMu.Lock()
	staged := 0
	for i, s := range e.shards {
		if len(losing[i]) == 0 {
			continue
		}
		var misplaced []int64
		s.read(func(t *table.Table) {
			for _, iv := range losing[i] {
				misplaced = append(misplaced, t.KeysInRange(iv.lo, iv.hi)...)
			}
		})
		for len(misplaced) > 0 {
			batch := misplaced[:min(len(misplaced), stageBatch)]
			misplaced = misplaced[len(batch):]
			staged += e.stage(i, batch, batch)
		}
	}
	e.obs.Event(obs.Event{Kind: obs.EvRebalanceStage, Shard: -1, Rows: staged})
	pub, werr := e.publish(newPart, newBounds, losing, &res)
	e.migrateMu.Unlock()

	if e.obs.Enabled() {
		e.obs.RebalancePauseNs.Observe(0, res.Pause.Nanoseconds())
		e.obs.RebalanceRows.Add(0, uint64(res.Moved))
	}
	e.obs.Event(obs.Event{Kind: obs.EvRebalancePublish, Shard: -1, Epoch: pub, Rows: res.Moved,
		Note: fmt.Sprintf("%d stragglers", res.Stragglers)})
	e.obs.Event(obs.Event{Kind: obs.EvRebalanceInstall, Shard: -1, Epoch: pub, DurNs: res.Pause.Nanoseconds(),
		Note: fmt.Sprintf("%d bounds installed", len(newBounds))})
	if e.durable {
		if e.afterRebalanceWAL != nil {
			e.afterRebalanceWAL()
		}
		// The manifest carries the new boundary set for the next recovery;
		// checkpointing persists it in every shard's checkpoint and prunes
		// the migration's WAL records behind the new horizon.
		werr = joinErrs(werr, e.rewriteManifest(), e.Checkpoint())
	}
	e.rebalances.Add(1)
	res.SkewAfter = skewOf(e.RowCounts())
	return res, werr
}

// stage is a migration's stage window: under every gate stripe plus src's
// swap lock it takes each row of olds from shard src and parks it in the
// staged-move registry, bound for the matching key of news. From then on
// readers serve the row from the registry at its old key until publish.
// Keys src no longer holds (deleted since they were listed) are skipped;
// stage returns how many rows it parked. Caller holds migrateMu.
func (e *Engine) stage(src int, olds, news []int64) int {
	e.lockAll()
	v := e.loadRoute()
	byOld := append(make([]*pendingMove, 0, v.moves.len()+len(olds)), v.moves.byOld...)
	s := e.shards[src]
	s.mu.Lock()
	for i, k := range olds {
		if row, err := s.takeLocked(k); err == nil {
			byOld = append(byOld, &pendingMove{old: k, new: news[i], row: row, src: src})
		}
	}
	s.mu.Unlock()
	n := len(byOld) - v.moves.len()
	if n > 0 {
		slices.SortFunc(byOld, func(a, b *pendingMove) int { return cmp.Compare(a.old, b.old) })
		e.publishRoute(v.part, &moveIndex{byOld: byOld})
	}
	e.unlockAll()
	if e.afterStage != nil {
		e.afterStage()
	}
	return n
}

// walFailed marks a shard whose WAL refused an append during a publish: no
// further record is appended to it and its commit is skipped (the append
// error is already reported).
const walFailed = math.MaxUint64

// publish is a migration's publish window. Caller holds migrateMu, so the
// staged-move registry holds exactly this migration's rows. Under every gate
// stripe plus the swap lock of every shard the migration changes (source and
// destination of a one-row move, the whole fleet when bounds is non-nil) it:
//
//  1. when bounds is non-nil, takes the stragglers — rows in a shard's
//     losing intervals that were written after staging, under the old
//     routing;
//  2. bumps the epoch once;
//  3. places every staged row and straggler on its owner under part at its
//     new key, rolling a row the destination rejects back to its source at
//     its old key, and appends a MoveOut/MoveIn pair for each placed row;
//  4. appends one RecRebalance per shard when bounds is non-nil;
//  5. publishes part with an empty registry.
//
// The WAL commits run after the locks drop. res receives Moved, Stragglers
// and Pause; publish returns the publish epoch and every placement, append
// and commit error, joined.
func (e *Engine) publish(part Partitioner, bounds []int64, losing [][]keyInterval, res *RebalanceResult) (uint64, error) {
	e.lockAll()
	pause := obs.StartTimer()
	moves := slices.Clip(e.loadRoute().moves.byOld)
	changes := make([]bool, len(e.shards))
	for i := range changes {
		changes[i] = bounds != nil
	}
	for _, m := range moves {
		changes[m.src], changes[part.Shard(m.new)] = true, true
	}
	for i, s := range e.shards {
		if changes[i] {
			s.mu.Lock()
		}
	}
	if bounds != nil {
		stragglers := e.takeStragglers(part, losing)
		res.Stragglers = len(stragglers)
		moves = append(moves, stragglers...)
	}
	pub := e.epoch.Advance()

	var errs error
	var lsn []uint64 // per shard: last LSN appended (0: none), or walFailed
	if e.durable {
		lsn = make([]uint64, len(e.shards))
	}
	appendTo := func(i int, r wal.Record) {
		if lsn == nil || lsn[i] == walFailed {
			return
		}
		s := e.shards[i]
		s.jmu.Lock()
		n, err := s.log.Append(r)
		s.jmu.Unlock()
		if err != nil {
			lsn[i] = walFailed
			errs = joinErrs(errs, fmt.Errorf("shard %d: %w", i, err))
			return
		}
		lsn[i] = n
	}
	rollbacks := 0
	for _, m := range moves {
		dst := part.Shard(m.new)
		var err error
		if e.failDestInsert != nil {
			err = e.failDestInsert(dst, m.new)
		}
		if err == nil {
			err = e.placeLocked(dst, m.new, m.row)
		}
		if err != nil {
			// The row returns to the shard it left (whose table exists, so
			// this cannot fail); after an install, recovery's re-homing
			// sweep finds it there.
			errs = joinErrs(errs, fmt.Errorf("shard: moving key %d→%d: destination insert on shard %d: %w", m.old, m.new, dst, err),
				e.placeLocked(m.src, m.old, m.row))
			rollbacks++
			continue
		}
		res.Moved++
		if lsn != nil {
			// The appends stay inside the window: a later write to the
			// migrated row carries the publish epoch too, so if its record
			// could beat the MoveIn into the shard's WAL, the stable epoch
			// sort at recovery would replay them inverted.
			r := wal.Record{Kind: wal.RecMoveOut, Epoch: pub, Key: m.old, Key2: m.new, Row: m.row, MoveID: e.moveSeq.Add(1)}
			appendTo(m.src, r)
			r.Kind = wal.RecMoveIn
			appendTo(dst, r)
		}
	}
	if bounds != nil {
		for i := range e.shards {
			appendTo(i, wal.Record{Kind: wal.RecRebalance, Epoch: pub, Bounds: bounds})
		}
	}
	e.publishRoute(part, emptyMoves)
	for i := len(e.shards) - 1; i >= 0; i-- {
		if changes[i] {
			e.shards[i].mu.Unlock()
		}
	}
	e.unlockAll()
	res.Pause = pause.Elapsed()

	if rollbacks > 0 {
		e.obs.Event(obs.Event{Kind: obs.EvMoveRollback, Shard: -1, Epoch: pub, Rows: rollbacks})
	}
	for i, n := range lsn {
		if n != 0 && n != walFailed {
			if err := e.shards[i].log.Commit(n); err != nil {
				errs = joinErrs(errs, fmt.Errorf("shard %d: %w", i, err))
			}
		}
	}
	return pub, errs
}

// joinErrs joins the non-nil errors like errors.Join — errors.Is and As see
// each one — through fmt's multi-%w wrapper, which fmt.Errorf already links.
// errors.Join would link errors.joinError's methods into every binary that
// moves a row and shift all code laid out after them by 544 bytes; on the
// 2-CPU reference host that alone puts the column scan loops at an alignment
// where point reads run ~35 % faster and range reads ~30 % slower.
func joinErrs(errs ...error) error {
	var out error
	for _, err := range errs {
		switch {
		case err == nil:
		case out == nil:
			out = err
		default:
			out = fmt.Errorf("%w\n%w", out, err)
		}
	}
	return out
}

// takeStragglers takes, from every shard, the rows inside the intervals it
// loses to part: writes that landed between a rebalance's stage windows
// under the old routing. Scanning exactly those intervals finds every
// straggler and nothing else — the rows just staged live in intervals their
// destination gains, not loses; TestDeltaRescanEquivalence checks this
// against a full-table rescan through the verifyRescan seam. Caller holds
// every stripe and every swap lock (publish window).
func (e *Engine) takeStragglers(part Partitioner, losing [][]keyInterval) []*pendingMove {
	keysOf := func(i int) []int64 {
		var out []int64
		if t := e.shards[i].tbl; t != nil {
			for _, iv := range losing[i] {
				out = append(out, t.KeysInRange(iv.lo, iv.hi)...)
			}
		}
		return out
	}
	if e.verifyRescan != nil {
		var full, bounded []int64
		for i, s := range e.shards {
			if s.tbl == nil {
				continue
			}
			for _, k := range s.tbl.Keys() {
				if part.Shard(k) != i {
					full = append(full, k)
				}
			}
			bounded = append(bounded, keysOf(i)...)
		}
		e.verifyRescan(full, bounded)
	}
	var out []*pendingMove
	for i, s := range e.shards {
		for _, k := range keysOf(i) {
			if row, err := s.takeLocked(k); err == nil {
				out = append(out, &pendingMove{old: k, new: k, row: row, src: i})
			}
		}
	}
	return out
}

// takeLocked takes one row with key from the shard — a migration's take
// half — and journals the delete for an in-flight shadow retrain; the WAL
// logs it at publish as a MoveOut instead. Caller holds s.mu exclusively.
func (s *shard) takeLocked(key int64) ([]int32, error) {
	if s.tbl == nil {
		return nil, errEmptyShard
	}
	row, err := s.tbl.TakeRow(key)
	if err == nil {
		s.journalLocked(wal.Record{Kind: wal.RecDelete, Key: key, Row: row})
	}
	return row, err
}

// placeLocked inserts a migrated row into shard dst (seeding its table when
// empty) — a migration's place half — and journals the insert for an
// in-flight shadow retrain; the WAL logs it at publish as a MoveIn. Caller
// holds dst's swap lock exclusively (publish window).
func (e *Engine) placeLocked(dst int, key int64, row []int32) error {
	r := wal.Record{Kind: wal.RecInsertRow, Key: key, Row: row}
	if _, err := e.shards[dst].replay(r); err != nil {
		return err
	}
	e.shards[dst].journalLocked(r)
	return nil
}

// journalLocked appends r to the retrain journal when a shadow retrain is in
// flight; caller holds s.mu exclusively (the journaling flag is stable).
func (s *shard) journalLocked(r wal.Record) {
	if !s.journaling {
		return
	}
	r.Epoch = s.ep.Now()
	s.jmu.Lock()
	s.journal = append(s.journal, r)
	s.jmu.Unlock()
}

// StartAutoRebalance launches the background rebalancing worker: every
// CheckEvery it compares the max/mean shard row-count skew against the
// policy threshold and, once the fleet has both drifted and absorbed MinOps
// monitored operations, re-splits the boundaries (Rebalance, under the
// policy's MaxSkew). Requires range partitioning; runs concurrently with the
// auto-retrainer (both feed the same per-shard monitors).
func (e *Engine) StartAutoRebalance(p RebalancePolicy) error {
	if _, ok := e.loadPart().(*RangePartitioner); !ok {
		return fmt.Errorf("shard: auto-rebalance requires range partitioning")
	}
	e.rebalanceCtl.Lock()
	defer e.rebalanceCtl.Unlock()
	if e.rebStopCh != nil {
		return fmt.Errorf("shard: auto-rebalance already running")
	}
	p = p.withDefaults()
	e.rebStopCh = make(chan struct{})
	e.rebDoneCh = make(chan struct{})
	e.monOn.Add(1)
	// The write-rate baseline is captured here, synchronously: operations
	// issued after StartAutoRebalance returns must count toward the MinOps
	// gate even if the worker goroutine is scheduled late (single-CPU
	// runtimes routinely run it only after the caller's next block).
	go e.rebalanceLoop(p, e.monitoredOps(), e.rebStopCh, e.rebDoneCh)
	return nil
}

// StopAutoRebalance stops the worker and waits for an in-flight rebalance to
// finish. Safe to call when none is running.
func (e *Engine) StopAutoRebalance() {
	e.rebalanceCtl.Lock()
	defer e.rebalanceCtl.Unlock()
	if e.rebStopCh == nil {
		return
	}
	close(e.rebStopCh)
	<-e.rebDoneCh
	e.rebStopCh, e.rebDoneCh = nil, nil
	e.monOn.Add(-1)
}

// Rebalances returns the number of completed rebalances (manual and
// automatic).
func (e *Engine) Rebalances() uint64 { return e.rebalances.Load() }

func (e *Engine) rebalanceLoop(p RebalancePolicy, opsBase int, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(p.CheckEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			counts := e.RowCounts()
			total := 0
			for _, c := range counts {
				total += c
			}
			if total < p.MinRows {
				continue
			}
			// Write-rate gate, reusing the retrain monitor windows: only
			// rebalance a fleet that is actually absorbing traffic. A
			// retrain rebasing its monitor can shrink the sum; re-base then.
			ops := e.monitoredOps()
			if ops < opsBase {
				opsBase = ops
			}
			if ops-opsBase < p.MinOps {
				continue
			}
			if skewOf(counts) < p.MaxSkew {
				continue
			}
			if _, err := e.rebalance(p.MaxSkew); err != nil {
				continue // durability errors also stick on the write path
			}
			opsBase = e.monitoredOps()
		}
	}
}

// monitoredOps sums the operations the per-shard monitors have observed
// since their last rebase — the rebalancer's write-rate signal.
func (e *Engine) monitoredOps() int {
	n := 0
	for _, s := range e.shards {
		since, _ := s.mon.stats()
		n += since
	}
	return n
}
