package shard

// Drift-triggered shard rebalancing: the sharded analogue of re-partitioning
// inside a shard (see the package comment's rebalance section for the
// stage → publish → install-partitioner protocol and ROADMAP "Shard
// rebalancing"). A detector watches per-shard row-count skew and the write
// rate observed by the retrain monitors; when the key distribution has
// drifted onto one end of the range, fresh boundaries are proposed and rows
// migrate between shards without ever being visible on zero or two shards.
//
// Proposals come in two strategies. The default, RebalanceMinimal
// (ProposeMinimalBounds), re-splits only the shards breaching the skew
// bound plus the neighbors absorbing their load, leaving every other
// boundary bit-identical; RebalanceQuantile re-splits every boundary on the
// global quantiles — the exhaustive baseline. Whatever the proposal, the
// migration is planned from the ownership delta (ownershipDelta): only rows
// inside intervals whose owner actually changes are staged, and the
// publish-window straggler rescan walks just those intervals through the
// table's bounded iterator (KeysInRange) instead of every live key — so
// both migration volume and the exclusive-window pause scale with the drift
// the layout absorbs, not with the table size.
//
// Durability: migrated rows are WAL-logged as MoveOut/MoveIn pairs (Key ==
// Key2) and the boundary change as one RecRebalance record per shard, all
// stamped with the publish epoch; the manifest is rewritten and a checkpoint
// cut afterwards, so recovery resolves the newest boundary set from
// whichever source survived (manifest, checkpoint, or WAL tail) and a
// re-homing sweep lands every row on its owner under that set — a crash at
// any byte offset mid-rebalance recovers to exactly one consistent boundary
// set (durable.go).

import (
	"errors"
	"fmt"
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

// defaultMaxSkew is the max/mean row-count ratio that triggers (and, for the
// minimal proposer, scopes) a rebalance when no policy overrides it.
const defaultMaxSkew = 1.5

// RebalanceStrategy selects the boundary proposer used by Rebalance,
// RebalanceWith, and the auto-rebalance worker.
type RebalanceStrategy int

const (
	// RebalanceMinimal (the default) re-splits only the shards breaching
	// the skew bound, plus the neighbors absorbing their load, leaving
	// every other boundary bit-identical — migration volume and publish
	// pause track the drift size. See ProposeMinimalBounds.
	RebalanceMinimal RebalanceStrategy = iota
	// RebalanceQuantile re-splits every boundary on the global quantiles —
	// the exhaustive baseline, which migrates most resident rows to absorb
	// even a small drifted tail.
	RebalanceQuantile
)

// RebalancePolicy tunes the background auto-rebalancer (StartAutoRebalance).
// Zero fields select defaults.
type RebalancePolicy struct {
	// CheckEvery is the skew check cadence (default 200ms).
	CheckEvery time.Duration
	// MaxSkew triggers a rebalance when the max/mean shard row-count ratio
	// reaches this value (default 1.5). 1 means perfectly balanced.
	MaxSkew float64
	// Strategy selects the boundary proposer (default RebalanceMinimal).
	Strategy RebalanceStrategy
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
// under the default minimal-movement strategy and migrates rows so every
// shard owns its new range — a no-op (Moved == 0) when no shard breaches
// the skew bound, when the proposal matches the installed bounds, or when
// the engine holds no rows. Concurrent reads keep flowing (and observe
// every row exactly once) except during the bounded stage windows and the
// single publish+install window (reported as Pause). Writes keep flowing
// too, with one caveat inherited from the cross-shard move protocol: a
// Delete or UpdateKey that targets a row while it is parked in the
// staged-move registry fails with "absent key" — the row is readable but
// not writable until the publish installs it; callers retry after the
// rebalance, exactly as with a row mid-move. Requires range partitioning.
//
// On a durable engine the boundary change and bulk moves are WAL-logged, the
// manifest rewritten, and a checkpoint cut; a returned error after a
// non-zero Moved reports lost durability, not a lost rebalance — the new
// boundaries are installed in memory either way.
func (e *Engine) Rebalance() (RebalanceResult, error) {
	return e.rebalanceStrategy(RebalanceMinimal, 0)
}

// RebalanceWith is Rebalance under an explicit proposal strategy —
// RebalanceQuantile restores the exhaustive all-boundaries re-split, for
// callers (and benchmarks) comparing it against the minimal default.
func (e *Engine) RebalanceWith(strategy RebalanceStrategy) (RebalanceResult, error) {
	return e.rebalanceStrategy(strategy, 0)
}

// rebalanceStrategy runs one proposal-driven rebalance; maxSkew <= 0 selects
// defaultMaxSkew (the auto-rebalance worker passes its policy's threshold so
// the proposer and the trigger agree on what "breaching" means).
func (e *Engine) rebalanceStrategy(strategy RebalanceStrategy, maxSkew float64) (RebalanceResult, error) {
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
	var proposal []int64
	switch strategy {
	case RebalanceQuantile:
		proposal = proposeBounds(keys, len(e.shards))
	default:
		proposal = ProposeMinimalBounds(keys, old, maxSkew)
	}
	return e.rebalanceLocked(proposal)
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

// rebalanceLocked runs the stage → publish → install protocol onto newBounds;
// caller holds rebalanceMu and has validated that the engine is
// range-partitioned.
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

	// Stage: park every row whose owner changes in the staged-move registry
	// (old key == new key), in bounded exclusive windows. Readers run
	// between batches and serve staged rows from the registry, so each row
	// stays visible exactly once throughout. The take halves journal (via
	// run) for in-flight shadow retrains but skip the WAL: durability logs
	// the whole migration at publish, so a crash while staging recovers the
	// pre-rebalance state.
	var staged []*pendingMove
	srcOf := make(map[*pendingMove]int)
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
			batch := misplaced
			if len(batch) > stageBatch {
				batch = batch[:stageBatch]
			}
			misplaced = misplaced[len(batch):]
			e.lockAll()
			var batchMoves []*pendingMove
			for _, k := range batch {
				take := &wal.Record{Kind: wal.RecDelete, Key: k}
				err, _ := s.run(take, true, func(t *table.Table, _ bool) error {
					row, terr := t.TakeRow(k)
					take.Row = row
					return terr
				})
				if err != nil {
					continue // deleted since the listing; nothing to move
				}
				m := &pendingMove{old: k, new: k, row: take.Row}
				batchMoves = append(batchMoves, m)
				staged = append(staged, m)
				srcOf[m] = i
			}
			// One snapshot publish per batch, not per row: the registry is
			// copy-on-write, so staging is batched to keep it linear.
			if len(batchMoves) > 0 {
				v := e.loadRoute()
				e.publishRoute(v.part, v.moves.with(batchMoves, nil))
			}
			e.unlockAll()
			if e.betweenRebalanceWindows != nil {
				e.betweenRebalanceWindows()
			}
		}
	}

	e.obs.Event(obs.Event{Kind: obs.EvRebalanceStage, Shard: -1, Rows: len(staged)})

	// Publish + install: one exclusive window holding the move gate and
	// every shard's swap lock, so no reader, writer, move, retrain swap, or
	// checkpoint can interleave. Staged rows land at their destinations, the
	// tables are rescanned for stragglers (writes that slipped in between
	// the staging batches under the old routing), the migration is
	// WAL-logged, and the new partitioner is installed with a single epoch
	// bump that retires the registry entries.
	type movedRow struct {
		src, dst int
		key      int64
		row      []int32
	}
	ours := make(map[*pendingMove]struct{}, len(staged))
	for _, m := range staged {
		ours[m] = struct{}{}
	}
	// Install barrier: raise the flag (blocking new cross-shard stages),
	// then wait for every in-flight move to drain before freezing the
	// fleet. Boundaries must not change while a move is staged: the move's
	// WAL record placement and checkpoint registry folding both equate the
	// routed owner of a staged key with the shard the row physically left.
	// The wait sleeps with no locks held, so draining moves make progress;
	// each writer has at most one move in flight, so the drain is bounded.
	e.lockAll()
	e.installing = true
	for {
		foreign := false
		for _, m := range e.loadRoute().moves.byOld {
			if _, ok := ours[m]; !ok {
				foreign = true
				break
			}
		}
		if !foreign {
			break
		}
		e.unlockAll()
		time.Sleep(200 * time.Microsecond)
		e.lockAll()
	}
	// The pause clock starts only now: during the drain above, the gate was
	// repeatedly released and reads/writes flowed normally. The one obs
	// timer feeds res.Pause, the RebalancePauseNs histogram, and the
	// install event, so bench reporting and the journal cannot disagree.
	pauseTimer := obs.StartTimer()
	for _, s := range e.shards {
		s.mu.Lock()
	}
	moved := make([]movedRow, 0, len(staged))
	// place lands one migrated row on its new owner. A destination that
	// cannot take the row (an empty shard whose one-row table will not
	// build — not reachable with rows taken from tables of this engine's
	// own config) is reported, not panicked on: the row returns to the shard
	// it left, where recovery's re-homing sweep will find it, and the
	// install carries on for every other row.
	var placeErr error
	place := func(src, dst int, key int64, row []int32) {
		if err := e.placeLocked(dst, key, row); err != nil {
			placeErr = errors.Join(placeErr,
				fmt.Errorf("shard: rebalance: key %d stays on shard %d: %w", key, src, err),
				e.placeLocked(src, key, row)) // cannot fail: src's table exists, the row was taken from it
			return
		}
		moved = append(moved, movedRow{src: src, dst: dst, key: key, row: row})
	}
	for _, m := range staged {
		place(srcOf[m], newPart.Shard(m.old), m.old, m.row)
	}
	// Straggler rescan, bounded to the ownership delta: a write that slipped
	// in between the staging batches landed under the old routing, so if its
	// owner changes it sits on the losing shard inside one of that shard's
	// delta intervals — scanning exactly those intervals finds every
	// straggler (and nothing else; the equivalence against a full-table
	// rescan is locked down by TestDeltaRescanEquivalence via the
	// verifyRescan seam below). The rows just placed from the registry are
	// never revisited: they live in intervals their destination gains, not
	// loses.
	stragglersOf := func(i int) []int64 {
		s := e.shards[i]
		if s.tbl == nil || len(losing[i]) == 0 {
			return nil
		}
		var out []int64
		for _, iv := range losing[i] {
			out = append(out, s.tbl.KeysInRange(iv.lo, iv.hi)...)
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
				if newPart.Shard(k) != i {
					full = append(full, k)
				}
			}
			bounded = append(bounded, stragglersOf(i)...)
		}
		e.verifyRescan(full, bounded)
	}
	for i, s := range e.shards {
		for _, k := range stragglersOf(i) {
			row, err := s.tbl.TakeRow(k)
			if err != nil {
				continue
			}
			s.journalLocked(wal.Record{Kind: wal.RecDelete, Key: k, Row: row})
			place(i, newPart.Shard(k), k, row)
			res.Stragglers++
		}
	}
	pub := e.epoch.Advance() // the single epoch bump installing the bounds
	commits := make(map[*shard]uint64)
	if e.durable {
		// Move pairs first, then one boundary record per shard, all stamped
		// with the publish epoch; appended under each shard's jmu so the
		// per-shard epoch order stays monotonic. The appends must stay
		// inside the freeze: a post-install write to a migrated row carries
		// the same epoch as the publish, so if its record could beat the
		// MoveIn into the shard's WAL, the stable epoch sort at recovery
		// would replay them in that inverted order and resurrect the row.
		// Only the fsyncs (Commit) happen after the locks drop.
		for _, mv := range moved {
			commits[e.shards[mv.src]], commits[e.shards[mv.dst]] = e.appendMovePair(mv.src, mv.dst,
				wal.Record{Epoch: pub, Key: mv.key, Key2: mv.key, Row: mv.row})
		}
		brec := wal.Record{Kind: wal.RecRebalance, Epoch: pub, Bounds: newBounds}
		for _, s := range e.shards {
			s.jmu.Lock()
			lsn, _ := s.log.Append(brec)
			s.jmu.Unlock()
			commits[s] = lsn
		}
	}
	// Install: one snapshot publish carries the new partitioner, the publish
	// epoch, and the registry with every staged entry retired in one pass (a
	// per-entry drop would be quadratic in the migration size, all inside
	// the window where every read and write is blocked). Readers and writers
	// blocked on the stripes and swap locks observe the new routing the
	// moment the locks drop.
	drop := make(map[*pendingMove]bool, len(staged))
	for _, m := range staged {
		drop[m] = true
	}
	e.publishRoute(newPart, e.loadRoute().moves.without(drop))
	e.installing = false // lower the barrier with the new boundaries in force
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
	e.unlockAll()
	res.Pause = pauseTimer.Elapsed()
	res.Moved = len(moved)
	if e.obs.Enabled() {
		e.obs.RebalancePauseNs.Observe(0, res.Pause.Nanoseconds())
		e.obs.RebalanceRows.Add(0, uint64(res.Moved))
	}
	e.obs.Event(obs.Event{Kind: obs.EvRebalancePublish, Shard: -1, Epoch: pub, Rows: res.Moved,
		Note: fmt.Sprintf("%d stragglers", res.Stragglers)})
	e.obs.Event(obs.Event{Kind: obs.EvRebalanceInstall, Shard: -1, Epoch: pub, DurNs: res.Pause.Nanoseconds(),
		Note: fmt.Sprintf("%d bounds installed", len(newBounds))})

	werr := placeErr
	if e.durable {
		for i, s := range e.shards {
			if lsn, ok := commits[s]; ok {
				if err := s.log.Commit(lsn); err != nil && werr == nil {
					werr = fmt.Errorf("shard %d: %w", i, err)
				}
			}
		}
		if e.afterRebalanceWAL != nil {
			e.afterRebalanceWAL()
		}
		if err := e.rewriteManifest(); err != nil && werr == nil {
			werr = err
		}
		// Checkpointing persists the new boundary set in every shard's
		// checkpoint and prunes the migration's WAL records behind the new
		// horizon.
		if err := e.Checkpoint(); err != nil && werr == nil {
			werr = err
		}
	}
	e.rebalances.Add(1)
	res.SkewAfter = skewOf(e.RowCounts())
	return res, werr
}

// placeLocked inserts a migrated row into shard dst (seeding its table when
// empty) and journals the insert for an in-flight shadow retrain; caller
// holds every shard's swap lock exclusively (publish window).
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
// monitored operations, re-splits the boundaries under the policy's
// proposal strategy (minimal movement by default). Requires range
// partitioning; runs concurrently with the auto-retrainer (both feed the
// same per-shard monitors).
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
			if _, err := e.rebalanceStrategy(p.Strategy, p.MaxSkew); err != nil {
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
