// Package shard scales the single-table Casper engine to a fleet of
// independently laid-out tables. The paper observes that column layouts
// "create regions of the data that can be processed in parallel" (§6);
// shard takes that to its production conclusion:
//
//   - the key domain is hash- or range-partitioned across N tables, each
//     with its own locks, monitor window, and cost-model training state;
//   - point and range reads fan out across the spanned shards and merge;
//   - ApplyBatch groups a write batch by shard and applies the groups in
//     parallel;
//   - a background worker watches per-shard access-pattern drift and
//     re-trains drifted shards on a shadow copy, swapping the new layout in
//     atomically so reads never block on re-layout (the online A' arc of
//     Fig. 10);
//   - rows move between shards through one row-migration protocol (below),
//     so a concurrent reader observes a moving row on exactly one shard at
//     all times.
//
// A 1-shard engine is behaviorally identical to the bare table, which keeps
// the public casper API backward compatible.
//
// # Routing snapshots and the striped move gate
//
// The engine carries a global epoch counter (a txn.Oracle, shareable with
// the transaction manager so commits and migrations draw from one time
// domain) and a registry of staged rows. Routing state — the epoch, the
// partitioner, and the staged-move registry (indexed by old key) — is
// published as one immutable snapshot behind an atomic pointer (routeSnap),
// so the hot read path pays one atomic load, not a contended lock acquire.
// Consistency comes from the striped move gate: one reader/writer stripe
// per shard. A point read holds the single stripe owning its key shared; a
// range read holds exactly the stripes its span touches; whole-fleet reads
// (Len, Chunks, View, RowCounts) hold every stripe shared. Migration
// windows — a stage or a publish — hold every stripe exclusively in
// ascending stripe order, so holding any one stripe shared freezes the
// entire snapshot: the epoch, the boundaries, and the registry are stable
// for the whole operation, and disjoint reads no longer contend on a single
// gate cache line.
//
// A reader validates its stripes optimistically: load the snapshot, lock
// the stripes the snapshot's partitioner routes to, then reload. If the
// partitioner changed in between (a rebalance install won the race), the
// stripes may be the wrong ones — unlock and retry; otherwise the freshest
// snapshot is used under the held stripes. Installs are rare, so the retry
// loop almost always exits on the first pass.
//
// # Row migration
//
// Every row that changes shard does so through one protocol, whatever the
// reason: a cross-shard UpdateKey is a one-row migration, and a rebalance
// (rebalance.go) migrates every row whose owner changes under its new
// boundaries. A migration holds migrateMu from its first stage window to
// the end of its publish, so migrations never overlap: the registry only
// ever holds the rows of the migration in flight, and boundaries never
// change while a row is staged — a staged row's routed owner is always the
// shard it physically left, which its WAL records and checkpoint folding
// rely on.
//
//  1. Stage: rows are taken from their source shard and parked in the
//     staged-move registry, in short exclusive windows (every stripe plus
//     the source's swap lock) — one row for an update, batches of
//     stageBatch for a rebalance. From this instant readers compensate: a
//     staged row still counts at its old key, served from the registry
//     instead of the source table. Between windows reads and writes run
//     normally.
//  2. Publish: one exclusive window holding every stripe and the swap lock
//     of every shard the migration changes (source and destination of a
//     one-row move, the whole fleet when boundaries change). When the
//     boundaries change, the ownership delta is first rescanned for
//     stragglers — rows written between the stage windows under the old
//     routing. The epoch is bumped once; every staged row and straggler is
//     placed on its owner (a row its destination rejects returns to its
//     source at its old key, and the error is reported); each placed row is
//     WAL-logged as a MoveOut/MoveIn record pair stamped with that epoch,
//     plus one RecRebalance boundary record per shard when the boundaries
//     change; and one snapshot publish retires the whole registry.
//  3. Install (rebalances only): that same snapshot carries the new
//     RangePartitioner, so every migrated row's visible home flips
//     atomically with the epoch bump.
//
// The WAL commits (fsyncs, per the log's policy) run after the window's
// locks drop. Because both transitions happen while readers are excluded
// (they take every stripe), and readers hold their stripes across their
// whole fan-out, no reader ever observes a row on zero shards or on two —
// including while a shadow retrain of either shard is in flight (takes and
// placements reach its journal; see below).
//
// A write that targets a staged row finds it absent from its shard: a
// Delete or same-shard UpdateKey fails with "absent key" (for a one-row
// move, exactly as had it run just after the publish; for a rebalance, the
// caller retries after the install). A cross-shard UpdateKey instead queues
// on migrateMu behind the migration and succeeds once it has published.
//
// Writers route to a shard, then revalidate the route after acquiring the
// shard's swap lock: because an install holds every swap lock exclusively,
// a writer that raced the install observes the new partitioner once it gets
// the lock and re-routes instead of stranding its row on a shard that no
// longer owns the key. Readers hold their gate stripes shared for their
// full fan-out and validate the partitioner after locking, so they never
// observe a half-installed boundary set.
//
// # One record, one replay path
//
// A mutation has exactly one encoding below the public API: a wal.Record
// (kind, keys, the payload of the row actually touched, the epoch it was
// applied under). shard.run builds it once per write and hands the same
// value to both logs — the in-memory retrain journal, kept only while a
// shadow retrain of the shard is in flight, and the shard's WAL on durable
// engines — under one jmu window, so both see application order. Migration
// takes and placements never go through run: the locked take/place pair
// (takeLocked, placeLocked) journals them for a shadow retrain, and the WAL
// logs them at publish as MoveOut/MoveIn pairs.
// Every consumer replays through one function, applyRecord (apply.go): the
// retrain swap draining its journal onto the shadow, crash recovery
// replaying WAL tails onto checkpoints, and a follower's Replicator. Row
// identity (the payload) makes replay resolve duplicate keys to the same
// row the live table touched, so all three reproduce it byte-identically;
// a record naming a row the replayed image lacks is counted and surfaced
// (retrain.swap / recovery.replay event notes, Replicator.Mismatches),
// never silently dropped.
//
// # Lock order
//
// Migrations come first, then gate stripes, then shard locks, then the
// journal/WAL lock:
//
//	rebalanceMu → migrateMu → gate stripe(s) (ascending stripe index) → shard.mu → shard.jmu
//
// Multi-stripe acquisitions — range spans, whole-fleet reads, and the
// all-stripe exclusive windows of migrations — always acquire in ascending
// stripe index order and release in descending order; a publish window
// takes the swap locks it needs in ascending shard order. Shard code never
// acquires a stripe while holding shard.mu or jmu, and nothing takes
// migrateMu while holding a stripe, so the order is acyclic. layoutMu
// (per-shard layout serialization) is taken without any stripe held and
// never nests inside one; monitor locks never nest inside shard or table
// locks. The fan-out worker pool executes read closures that take shard.mu
// only, so pool workers obey the same order.
//
// Observability (internal/obs) sits outside this order entirely: metric
// recording is lock-free (atomic counters and histogram buckets) and must
// never be called while holding shard.mu or jmu — recording under gate
// stripes is allowed, and the one sanctioned exception is WAL byte/append
// accounting inside wal.Log, which runs under the log's own mutex while
// the caller holds mu.RLock+jmu (atomics only, so no order edge is
// created). Event-journal appends take only the journal's leaf mutex and
// follow the same rule: emit lifecycle events after shard.mu/jmu windows
// close (checkpoints, retrains, migration publishes).
//
// Aggregates (RangeCount, RangeSum, MultiRangeSum; Engine.foldShards) need
// no key order, so they never enter the streaming path: they hold lockSpan
// (or a View's stripes) for the whole call and take shard.mu exactly once
// per spanned shard — inline on the caller for a one-shard span, on the
// fan-out pool for a wider one — while the table folds its own partitions
// under its chunk locks (covered partitions from their maintained sums and
// counts, without visiting a row). The staged-move compensation is a scalar
// the caller adds from the pinned snapshot, so every row is visible exactly
// once for the whole fold.
//
// Streaming scans (stream.go: Cursor over shardSource over table.ScanIter)
// follow the same order with one extra rule: a cursor-mode shardSource
// acquires its shard's gate stripe shared only for the duration of ONE
// batch fill — stripe → shard.mu → chunk locks, all released before the
// batch is handed to the consumer — and never holds any lock across a
// consumer yield. A fill draws from one partition at a time (the unit
// ScanIter captures and orders), so the locks are held for a pass over a
// partition, not over the range. It revalidates at every fill: the routing
// snapshot is reloaded under the stripe (observing any install that landed
// between batches) and the table pointer is re-checked under shard.mu
// (restarting the chunk iterator at the resume key if a shadow retrain
// swapped the table). Pinned-mode sources (View.Scan) must NOT touch
// stripes — their caller already holds the covering stripes shared, and
// re-acquiring would deadlock behind a queued writer — so they take only
// shard.mu per batch. Prefetch fills run on fan-out pool workers and acquire
// stripe/shard.mu in the same order; a fill never blocks on its consumer
// (the batch hand-off channel always has room), so pool saturation degrades
// to inline fills, never deadlock. A source whose cursor's row budget
// (Limit) is met by a fill schedules no further one, and a closed source
// returns to the shared pool only after its last fill has been drained.
//
// # Drift-triggered shard rebalancing
//
// Range partitioning fixes boundaries at load time, so a drifted key
// distribution piles rows onto one shard. Rebalancing (rebalance.go) is the
// sharded analogue of re-partitioning inside a shard: a detector watches
// per-shard row counts (max/mean skew) and write rates, and the
// minimal-movement proposer re-splits only the shards breaching the skew
// bound (merging load into their starved neighbors), leaving every other
// boundary bit-identical. The migration is planned from the ownership delta:
// the key intervals whose owner differs between the old and new bounds.
// Rows outside those intervals keep their owner by construction, so the
// staging scan and the straggler rescan are bounded to them
// (table.KeysInRange) and both the migration volume and the publish pause
// scale with the drift actually absorbed, not with the table size.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"casper/internal/obs"
	"casper/internal/table"
	"casper/internal/txn"
	"casper/internal/wal"
	"casper/internal/workload"
)

// errEmptyShard marks operations against a shard that holds no rows yet.
var errEmptyShard = fmt.Errorf("shard: empty shard")

// shard is one partition: a table plus the swap lock and its two op-logs of
// wal.Records — the transient retrain journal and (durable engines) the WAL.
type shard struct {
	// idx is this shard's ordinal in eng.shards; together they let a write
	// revalidate its routing after acquiring the swap lock (see Engine.mutate
	// and the rebalance section of the package comment).
	idx int
	eng *Engine

	// mu guards the tbl pointer. Readers and writers hold it shared for
	// the duration of an operation; the retrainer holds it exclusive only
	// to snapshot and to swap, never while solving layouts.
	mu  sync.RWMutex
	tbl *table.Table // nil until the shard receives its first row

	// jmu guards the retrain journal. While journaling, writers apply
	// and append under mu.RLock + jmu (keeping journal order identical
	// to application order); the retrainer flips journaling and drains
	// the journal under mu.Lock, so a swap observes every mutation
	// applied to the outgoing table. The journal holds the very records
	// the WAL would (or does) carry, and drains through applyRecord.
	jmu        sync.Mutex
	journaling bool // written only under mu.Lock; stable under mu.RLock
	journal    []wal.Record

	// layoutMu serializes layout mutations (in-place Train vs shadow
	// retrain) on this shard: a user-driven Train blocks behind an
	// in-flight background retrain (and vice versa) instead of failing.
	layoutMu sync.Mutex

	cfg table.Config // table config, for seeding and shadow rebuilds
	mon *monitor
	ep  *txn.Oracle // engine epoch oracle, for stamping journal entries

	// Durability state (nil/zero on in-memory engines). log is the shard's
	// WAL handle; appends happen under mu.RLock + jmu exactly like journal
	// entries, so WAL order matches application order for dependent writes.
	// sdir is the shard's directory; ckptMu serializes checkpoints of this
	// shard; nextCkpt is the next checkpoint sequence number.
	log      *wal.Log
	sdir     string
	ckptMu   sync.Mutex
	nextCkpt uint64
}

// Config configures New.
type Config struct {
	// Shards is the partition count (default 1).
	Shards int
	// ByRange selects range partitioning on the initial keys' quantiles
	// instead of the default hash partitioning. Range partitioning prunes
	// range-query fan-out; hash partitioning spreads hot key ranges over
	// the whole fleet.
	ByRange bool
	// Table configures each shard's table.
	Table table.Config
	// Gen generates payload rows at load time (nil = table default).
	Gen table.PayloadGen
	// MonitorCap is the per-shard monitor window in operations
	// (default 8192); the window feeds background retraining.
	MonitorCap int
	// Epoch is the timestamp oracle backing the cross-shard commit
	// protocol. Passing the oracle of a txn.Manager puts transactional
	// commits and cross-shard moves in one time domain; nil creates a
	// private oracle.
	Epoch *txn.Oracle
	// Dir enables durability: each shard keeps an append-only WAL and
	// chunk checkpoints under this directory. When the directory already
	// holds a committed manifest, New recovers the persisted engine (keys
	// is ignored); otherwise it bootstraps from keys and persists the
	// initial state. Empty disables durability (fully in-memory).
	Dir string
	// Sync is the WAL fsync policy for durable engines (default
	// wal.SyncInterval).
	Sync wal.SyncPolicy
	// SyncEvery is the fsync interval under wal.SyncInterval (default
	// 100ms).
	SyncEvery time.Duration
	// Admission configures the write admission controller (admission.go):
	// a token-bucket write limiter with per-tenant fairness whose refill
	// rate the drift monitors govern. The zero value disables it.
	Admission AdmissionPolicy
}

// withDefaults resolves the zero values New documents.
func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.MonitorCap <= 0 {
		c.MonitorCap = 8192
	}
	if c.Epoch == nil {
		c.Epoch = txn.NewOracle()
	}
	return c
}

// newShard returns shard i of e, empty; cfg has its defaults resolved.
func newShard(i int, e *Engine, cfg Config) *shard {
	return &shard{idx: i, eng: e, cfg: cfg.Table, mon: &monitor{cap: cfg.MonitorCap}, ep: cfg.Epoch}
}

// pendingMove is one row of a migration between its stage and its publish:
// the row has left shard src and is physically on no shard, and readers
// serve it from this registry entry at its old key. new is the key it
// publishes at (old itself for a rebalance).
type pendingMove struct {
	old, new int64
	row      []int32
	src      int
}

// Engine is a sharded Casper engine.
type Engine struct {
	cfg    table.Config
	shards []*shard

	// route is the atomically published routing snapshot: epoch,
	// partitioner, and staged-move index as of the last move-gate
	// transition. Reads load it once (one atomic load, no lock) and then
	// pin it by holding gate stripes shared; every migration window — a
	// stage or a publish — replaces the pointer with a fresh immutable
	// snapshot while holding every stripe exclusively. Lock-free paths (batch grouping, monitor routing,
	// write pre-routing) load it once per decision; writes revalidate
	// their route under the shard swap lock.
	route atomic.Pointer[routeSnap]
	// stripes is the striped move gate, one stripe per shard, in shard
	// order. See the package comment's lock-order section; acquire
	// through lockKey/lockSpan/rlockAll/lockAll, never directly.
	stripes []gateStripe
	// pool is the bounded fan-out worker pool shared by every range read
	// (see fanPool).
	pool *fanPool

	// epoch is the global epoch counter; every migration publish advances
	// it exactly once.
	epoch *txn.Oracle
	// migrateMu serializes row migrations (cross-shard UpdateKeys and
	// rebalances) from their first stage window to the end of their
	// publish, so the staged-move registry only ever holds one migration's
	// rows and boundaries never change while a row is staged.
	migrateMu sync.Mutex
	// failDestInsert, when non-nil, injects a destination-shard rejection
	// into a migration's publish (test seam for the rollback path).
	failDestInsert func(shard int, key int64) error
	// afterStage, when non-nil, runs after every stage window of a
	// migration with only migrateMu held (test seam for reads, writes and
	// checkpoints against staged rows).
	afterStage func()

	// Durability state (zero on in-memory engines): dir is the engine
	// directory, wopts the WAL options shared by every shard's log, and
	// moveSeq the move ID counter pairing MoveOut/MoveIn WAL records
	// (allocated inside the publish window, so checkpoints cut under the
	// move gate see a stable horizon).
	durable bool
	dir     string
	wopts   wal.Options
	moveSeq atomic.Uint64
	// readonly marks a follower engine (NewFollower): every public mutation
	// fails with ErrReadOnly, and only its Replicator — which bypasses the
	// public write path entirely — changes table state.
	readonly bool
	// replayMismatches is the count of WAL records whose row-identity delete
	// failed during recovery replay (set once in recoverDurable, before the
	// engine is shared; see ReplayMismatches).
	replayMismatches int

	// obs is the engine's metrics registry and event journal, created in
	// initRoute with one stripe per shard. Metric recording is gated on
	// obs.Enabled() (refcounted, like monOn); journal events are recorded
	// unconditionally. See the lock-order section of the package comment
	// for where recording is allowed.
	obs *obs.Registry

	// adm is the write admission controller (admission.go); nil when
	// Config.Admission is zero. Set once in New before the engine is
	// shared, cleared only by Close.
	adm *admission

	// monOn counts the consumers (retrainer, rebalancer, admission governor,
	// an explicit StartMonitor session) that want per-operation recording, so
	// the unmonitored fast path costs one atomic load and the workers can
	// start and stop independently.
	monOn atomic.Int32
	// userMon marks an explicit monitoring session (StartMonitor); it holds
	// one monOn reference while set.
	userMon      atomic.Bool
	keyLo, keyHi int64 // initial key extremes, for drift bucketing

	retrainMu sync.Mutex
	stopCh    chan struct{}
	doneCh    chan struct{}
	retrains  atomic.Uint64

	// Rebalance state (rebalance.go): rebalanceMu serializes rebalances
	// (proposal through checkpoint), rebalances counts completed ones, and
	// the reb* channels bracket the auto-rebalance worker. afterRebalanceWAL
	// (test seam) runs after the WAL commits but before the manifest rewrite.
	rebalanceMu       sync.Mutex
	rebalanceCtl      sync.Mutex
	rebStopCh         chan struct{}
	rebDoneCh         chan struct{}
	rebalances        atomic.Uint64
	afterRebalanceWAL func()
	// verifyRescan (test seam) runs inside a rebalance's publish window,
	// before the straggler take pass, with the full-table straggler
	// multiset and the delta-bounded one — the shadow comparison behind the
	// rescan equivalence property test. Must not call engine operations
	// (every lock is held).
	verifyRescan func(full, bounded []int64)
}

// routeSnap is one immutable routing snapshot: the epoch, the partitioner,
// and the staged-move index as of the move-gate transition that published
// it. Readers pin a snapshot by holding gate stripes shared; transitions
// replace the whole pointer, never mutate a published snapshot.
type routeSnap struct {
	epoch uint64
	part  Partitioner
	moves *moveIndex
}

// moveIndex is the staged-move registry of a routing snapshot, kept sorted
// by old key so reader-side compensation is a binary search plus a walk of
// the matching entries instead of a scan of every staged move.
type moveIndex struct {
	byOld []*pendingMove
}

var emptyMoves = &moveIndex{}

func (ix *moveIndex) len() int { return len(ix.byOld) }

// forRange calls fn for every staged move whose old key lies in [lo, hi].
func (ix *moveIndex) forRange(lo, hi int64, fn func(*pendingMove)) {
	i := sort.Search(len(ix.byOld), func(i int) bool { return ix.byOld[i].old >= lo })
	for ; i < len(ix.byOld) && ix.byOld[i].old <= hi; i++ {
		fn(ix.byOld[i])
	}
}

// gateStripe is one stripe of the striped move gate, padded so the reader
// counts of different shards live on distinct cache lines — the contention
// the striping exists to remove.
type gateStripe struct {
	mu sync.RWMutex
	_  [128 - unsafe.Sizeof(sync.RWMutex{})%128]byte
}

// initRoute installs the initial routing snapshot and sizes the gate
// stripes and the fan-out pool; called once per constructed engine, before
// it is shared.
func (e *Engine) initRoute(part Partitioner) {
	e.obs = obs.New(part.Shards())
	e.stripes = make([]gateStripe, part.Shards())
	e.pool = newFanPool(e.obs)
	e.route.Store(&routeSnap{part: part, moves: emptyMoves})
}

// loadRoute returns the current routing snapshot. Only stable while at
// least one gate stripe is held; lock-free callers treat it as advisory.
func (e *Engine) loadRoute() *routeSnap { return e.route.Load() }

// loadPart returns the current partitioner.
func (e *Engine) loadPart() Partitioner { return e.route.Load().part }

// publishRoute installs a new routing snapshot carrying the current epoch.
// Caller holds every gate stripe exclusively, so no reader can be between
// its snapshot load and its compensation lookups.
func (e *Engine) publishRoute(part Partitioner, ix *moveIndex) {
	e.route.Store(&routeSnap{epoch: e.epoch.Now(), part: part, moves: ix})
}

// lockKey acquires the gate stripe owning key shared and returns the
// snapshot it validated plus the stripe ordinal for unlockKey. See the
// package comment for the optimistic validation protocol.
func (e *Engine) lockKey(key int64) (*routeSnap, int) {
	for {
		v := e.route.Load()
		s := v.part.Shard(key)
		e.stripes[s].mu.RLock()
		w := e.route.Load()
		// Same snapshot, or a newer one under the same partitioner (a
		// move transition, which any held stripe excludes from here on):
		// the locked stripe is the right one. Only a rebalance install
		// can invalidate the routing; then retry.
		if w == v || w.part == v.part {
			return w, s
		}
		e.stripes[s].mu.RUnlock()
		if e.obs.Enabled() {
			e.obs.StripeRetries.Inc(s)
		}
	}
}

func (e *Engine) unlockKey(s int) { e.stripes[s].mu.RUnlock() }

// lockSpan acquires the stripes of the span [lo, hi] shared, in ascending
// order, and returns the validated snapshot plus the stripe interval for
// unlockSpan.
func (e *Engine) lockSpan(lo, hi int64) (*routeSnap, int, int) {
	for {
		v := e.route.Load()
		a, b := v.part.Span(lo, hi)
		for i := a; i <= b; i++ {
			e.stripes[i].mu.RLock()
		}
		w := e.route.Load()
		if w == v || w.part == v.part {
			return w, a, b
		}
		for i := b; i >= a; i-- {
			e.stripes[i].mu.RUnlock()
		}
		if e.obs.Enabled() {
			e.obs.StripeRetries.Inc(a)
		}
	}
}

func (e *Engine) unlockSpan(a, b int) {
	for i := b; i >= a; i-- {
		e.stripes[i].mu.RUnlock()
	}
}

// rlockAll acquires every stripe shared (ascending): the whole-fleet read
// gate. Holding it excludes every move-gate transition, so the snapshot
// needs no validation.
func (e *Engine) rlockAll() {
	for i := range e.stripes {
		e.stripes[i].mu.RLock()
	}
}

func (e *Engine) runlockAll() {
	for i := len(e.stripes) - 1; i >= 0; i-- {
		e.stripes[i].mu.RUnlock()
	}
}

// lockAll acquires every stripe exclusively (ascending): the move-gate
// transition window.
func (e *Engine) lockAll() {
	for i := range e.stripes {
		e.stripes[i].mu.Lock()
	}
}

func (e *Engine) unlockAll() {
	for i := len(e.stripes) - 1; i >= 0; i-- {
		e.stripes[i].mu.Unlock()
	}
}

// fanPool is the engine's bounded fan-out worker pool: GOMAXPROCS workers
// (sized once, at engine construction) reused across queries, so a range
// fan-out costs channel hand-offs instead of per-query goroutine spawns.
// On a single-CPU runtime the pool stays empty and fan-out degenerates to
// the strictly cheaper sequential merge. Workers are started lazily on the
// first parallel fan-out and then park on the empty channel for the
// engine's lifetime — a closed engine keeps serving reads, so there is
// deliberately no shutdown path.
type fanPool struct {
	size  int
	tasks chan func()
	once  sync.Once
	obs   *obs.Registry // submit-vs-inline accounting; counts pooled paths only
}

func newFanPool(o *obs.Registry) *fanPool {
	n := runtime.GOMAXPROCS(0)
	return &fanPool{size: n, tasks: make(chan func(), 4*n), obs: o}
}

// run executes fn(0..n-1), distributing across the pool's workers. When
// the queue is saturated the caller executes the task inline — the caller
// is a worker too, so a full pool degrades to sequential execution instead
// of blocking, and the pool can never deadlock on its own capacity.
func (p *fanPool) run(n int, fn func(int)) {
	if p.size <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.start()
	rec := p.obs != nil && p.obs.Enabled()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		t := func(i int) func() {
			return func() { defer wg.Done(); fn(i) }
		}(i)
		select {
		case p.tasks <- t:
			if rec {
				p.obs.FanSubmits.Inc(i)
			}
		default:
			if rec {
				p.obs.FanInline.Inc(i)
			}
			t()
		}
	}
	wg.Wait()
}

func (p *fanPool) start() {
	p.once.Do(func() {
		for w := 0; w < p.size; w++ {
			go func() {
				for t := range p.tasks {
					t()
				}
			}()
		}
	})
}

// submit schedules fn on a pool worker without waiting for it. On a
// single-CPU runtime, or when the queue is saturated, fn runs inline before
// submit returns — callers (scan read-ahead) must tolerate synchronous
// execution, which they do because a prefetch fill never blocks on its
// consumer: the hand-off channel always has room for the one outstanding
// batch.
func (p *fanPool) submit(fn func()) {
	if p.size <= 1 {
		fn()
		return
	}
	p.start()
	select {
	case p.tasks <- fn:
		if p.obs != nil && p.obs.Enabled() {
			p.obs.FanSubmits.Inc(0)
		}
	default:
		if p.obs != nil && p.obs.Enabled() {
			p.obs.FanInline.Inc(0)
		}
		fn()
	}
}

// monitoring reports whether any background worker wants per-operation
// monitor recording.
func (e *Engine) monitoring() bool { return e.monOn.Load() > 0 }

// Obs returns the engine's metrics registry (never nil once constructed).
// Tests use it to tighten latency sampling; normal consumers go through
// Metrics/Events.
func (e *Engine) Obs() *obs.Registry { return e.obs }

// EnableObs turns on metric recording (refcounted). Lifecycle events are
// journaled regardless.
func (e *Engine) EnableObs() { e.obs.Enable() }

// DisableObs decrements the metric-recording refcount.
func (e *Engine) DisableObs() { e.obs.Disable() }

// Metrics returns a point-in-time snapshot of every engine metric, stamped
// with the current global epoch so two snapshots diff into rates (epoch
// advances per published cross-shard move and, with a shared oracle, per
// transaction commit).
func (e *Engine) Metrics() obs.Snapshot {
	s := e.obs.Snapshot()
	s.Epoch = e.epoch.Now()
	return s
}

// Events returns journaled lifecycle events with Seq > since, oldest first.
func (e *Engine) Events(since uint64) []obs.Event { return e.obs.Events(since) }

// compHit records n staged-move compensation hits on a read path — rows a
// reader served from the registry instead of a table because a cross-shard
// move or rebalance had them staged.
func (e *Engine) compHit(stripe, n int) {
	if n > 0 && e.obs.Enabled() {
		e.obs.CompHits.Add(stripe, uint64(n))
	}
}

// New loads keys (any order) into a sharded engine. With Config.Dir set the
// engine is durable: if the directory already holds committed state New
// recovers it (keys is ignored), otherwise the keys are loaded and the
// initial state persisted; see durable.go for the recovery protocol.
func New(keys []int64, cfg Config) (*Engine, error) {
	var e *Engine
	var err error
	if cfg.Dir != "" {
		e, err = openDurable(keys, cfg)
	} else {
		e, err = newInMemory(keys, cfg)
	}
	if err != nil {
		return nil, err
	}
	e.startAdmission(cfg.Admission)
	return e, nil
}

// newInMemory is the original fully in-memory constructor.
func newInMemory(keys []int64, cfg Config) (*Engine, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("shard: empty key set")
	}
	cfg = cfg.withDefaults()
	var part Partitioner
	if cfg.ByRange {
		part = NewRangePartitioner(keys, cfg.Shards)
	} else {
		part = NewHashPartitioner(cfg.Shards)
	}
	e := &Engine{cfg: cfg.Table, epoch: cfg.Epoch, keyLo: keys[0], keyHi: keys[0]}
	e.initRoute(part)
	perShard := make([][]int64, part.Shards())
	for _, k := range keys {
		perShard[part.Shard(k)] = append(perShard[part.Shard(k)], k)
		if k < e.keyLo {
			e.keyLo = k
		}
		if k > e.keyHi {
			e.keyHi = k
		}
	}
	for i := 0; i < part.Shards(); i++ {
		s := newShard(i, e, cfg)
		if len(perShard[i]) > 0 {
			tbl, err := table.New(perShard[i], cfg.Table, cfg.Gen)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			s.tbl = tbl
		}
		e.shards = append(e.shards, s)
	}
	return e, nil
}

// Shards returns the shard count. It is invariant across rebalances — a
// rebalance re-splits boundaries among the existing shards, never changes
// their number.
func (e *Engine) Shards() int { return len(e.shards) }

// Partitioner returns the key router currently in use. On a range-
// partitioned engine a rebalance may replace it; the returned value is the
// router as of the call.
func (e *Engine) Partitioner() Partitioner { return e.loadPart() }

// Epoch returns the current global epoch. It advances exactly once per
// published cross-shard move (and, when the oracle is shared with a
// txn.Manager, once per transaction commit).
func (e *Engine) Epoch() uint64 { return e.epoch.Now() }

// bucket maps a key to a drift-histogram bucket over the initial domain.
func (e *Engine) bucket(key int64) int {
	span := e.keyHi - e.keyLo + 1
	if span <= 0 {
		return 0
	}
	b := int(float64(key-e.keyLo) / float64(span) * driftBuckets)
	return max(0, min(b, driftBuckets-1))
}

// record feeds an operation into the monitor of every shard it touches,
// under the same RouteOp rule the training split uses.
func (e *Engine) record(op workload.Op) {
	p := e.loadPart()
	owner := p.Shard(op.Key)
	workload.RouteOp(op, p.Shard, p.Span, func(s int) {
		key := op.Key
		if op.Kind == workload.Q6Update && s != owner {
			key = op.Key2 // the update lands in this shard at its new key
		}
		e.shards[s].mon.record(op, e.bucket(key))
	})
}

// ---------------------------------------------------------------------------
// Shard-local application: one record per mutation, journaled and logged
// ---------------------------------------------------------------------------

// routed reports whether this shard still owns r's key(s) under the current
// partitioner. It must be evaluated while holding s.mu (shared or
// exclusive): a rebalance installs a new partitioner only while holding
// every shard's swap lock exclusively, so the answer is stable for the rest
// of the lock window, and a writer that acquired the lock after an install
// is guaranteed to observe the new routing.
func (s *shard) routed(r *wal.Record) bool {
	p := s.eng.loadPart()
	if p.Shard(r.Key) != s.idx {
		return false
	}
	return r.Kind != wal.RecUpdate || p.Shard(r.Key2) == s.idx
}

// ErrReadOnly is returned by every mutation on a follower engine: a
// follower's state is the replicated image of its leader, and a local write
// would silently diverge it.
var ErrReadOnly = errors.New("shard: engine is read-only (follower)")

// mutate routes r to its owning shard and runs it there, re-routing if a
// concurrent rebalance moved the key's owner while the write waited on the
// shard lock.
func (e *Engine) mutate(r *wal.Record, fn func(t *table.Table, capture bool) error) error {
	if e.readonly {
		return ErrReadOnly
	}
	for {
		if err, ok := e.shards[e.loadPart().Shard(r.Key)].run(r, fn); ok {
			return err
		}
	}
}

// run executes one mutation against the shard's current table under the swap
// read lock. r is the mutation's one encoding: the wal.Record that the
// retrain journal keeps while a shadow retrain is in flight, that the WAL
// appends when the engine is durable, and that applyRecord later replays —
// onto the shadow at the swap, onto a checkpoint at recovery, onto a
// follower. fn performs the live mutation and receives whether it must
// capture row identity; when it must, fn fills r.Row with the payload of the
// row it touched before returning, and run stamps r.Epoch and appends r only
// after fn succeeds. When the shard is still empty, seed builds a one-row
// table for inserts; deletes and updates report errEmptyShard.
//
// run returns ok=false without executing fn when the shard no longer owns
// r's key under the current partitioner (a rebalance installed new
// boundaries while this write waited on the lock); the caller re-routes.
//
// The journaling flag only transitions under the exclusive swap lock, so it
// is stable for the whole RLock window here. While a retrain is in flight or
// a WAL is attached, apply and append happen atomically under jmu: dependent
// writes (an update another writer's delete relies on) land in the journal
// and the WAL in exactly their application order, so replay preserves the
// live table's row contents byte-identically — deletes and updates carry the
// payload of the row the live table actually touched, resolving duplicate
// keys to the same row. When neither is active, writes skip jmu entirely and
// only contend on the table's chunk locks.
//
// The WAL fsync (group commit, per the log's policy) happens after the locks
// are released, so concurrent committers share fsyncs instead of serializing
// on one.
func (s *shard) run(r *wal.Record, fn func(t *table.Table, capture bool) error) (error, bool) {
	logging := s.log != nil
	for {
		s.mu.RLock()
		if !s.routed(r) {
			s.mu.RUnlock()
			return nil, false
		}
		if t := s.tbl; t != nil {
			var err error
			var lsn uint64
			if s.journaling || logging {
				s.jmu.Lock()
				err = fn(t, true)
				if err == nil {
					r.Epoch = s.ep.Now()
					if s.journaling {
						s.journal = append(s.journal, *r)
					}
					if logging {
						lsn, _ = s.log.Append(*r) // sticky error surfaces in Commit
					}
				}
				s.jmu.Unlock()
			} else {
				err = fn(t, false)
			}
			s.mu.RUnlock()
			if err == nil && logging {
				err = s.log.Commit(lsn)
			}
			return err, true
		}
		s.mu.RUnlock()
		if r.Kind == wal.RecDelete || r.Kind == wal.RecUpdate {
			return errEmptyShard, true
		}
		ok, lsn, err := s.seed(r)
		if err == nil && ok && logging {
			err = s.log.Commit(lsn)
		}
		if ok || err != nil {
			return err, true
		}
		// Lost the creation race (or the route went stale); retry — the
		// top-of-loop route check re-routes a stale write.
	}
}

// seed creates the shard's table holding exactly r's row, WAL-logging the
// insert (on a durable engine) under the same exclusive window so no later
// record can precede it; the caller commits lsn after seeing ok. Returns
// ok=false if another writer created the table first or the route went stale
// under a concurrent rebalance.
func (s *shard) seed(r *wal.Record) (ok bool, lsn uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tbl != nil || !s.routed(r) {
		return false, 0, nil
	}
	if _, err = s.replay(*r); err != nil { // empty shard: replay seeds the table from r's row
		return false, 0, err
	}
	if s.log != nil {
		r.Epoch = s.ep.Now()
		lsn, _ = s.log.Append(*r)
	}
	return true, lsn, nil
}

// seedTable builds the one-row table an empty shard starts from. A nil row
// takes the default payload (a plain insert); an explicit row must match the
// configured payload width — anything else was logged against a different
// schema and must surface as an error, not be silently padded or truncated.
func seedTable(cfg table.Config, key int64, row []int32) (*table.Table, error) {
	if row != nil && len(row) != max(cfg.PayloadCols, 0) {
		return nil, fmt.Errorf("shard: seeding one-row table: key %d carries %d payload columns, table has %d",
			key, len(row), max(cfg.PayloadCols, 0))
	}
	tbl, err := table.NewFromRows([]int64{key}, [][]int32{row}, cfg)
	if err != nil {
		return nil, fmt.Errorf("shard: seeding one-row table: %w", err)
	}
	return tbl, nil
}

// read runs fn against the current table under the swap read lock; fn is
// skipped (zero result) while the shard is empty.
func (s *shard) read(fn func(*table.Table)) {
	s.mu.RLock()
	if s.tbl != nil {
		fn(s.tbl)
	}
	s.mu.RUnlock()
}

// ---------------------------------------------------------------------------
// Reads: fan out across spanned shards and merge
// ---------------------------------------------------------------------------

// foldShards sums fn over the tables of the shards v routes [lo, hi] to —
// the whole read path of an aggregate, which needs no key order and so no
// merge, no row buffer and no cursor: each table folds its own partitions
// (table.RangeCount/RangeSum/MultiRangeSum) under one shard.mu hold. A
// one-shard span runs inline on the caller; a wider one fans out over the
// pool. The caller holds the gate stripes covering the span (lockSpan or a
// View), so v is frozen for the whole fold, and adds the staged-move
// compensation itself. fn runs concurrently across shards and must be pure.
func (e *Engine) foldShards(v *routeSnap, lo, hi int64, fn func(*table.Table) int64) int64 {
	a, b := v.part.Span(lo, hi)
	var sum int64
	if a == b {
		e.shards[a].read(func(t *table.Table) { sum = fn(t) })
		return sum
	}
	parts := make([]int64, b-a+1)
	e.pool.run(len(parts), func(i int) {
		e.shards[a+i].read(func(t *table.Table) { parts[i] = fn(t) })
	})
	for _, p := range parts {
		sum += p
	}
	return sum
}

// PointQuery returns the number of live rows with the given key (Q1).
func (e *Engine) PointQuery(key int64) int {
	tr := e.obs.OpBegin(obs.OpPointQuery, int(key))
	defer e.obs.OpEnd(obs.OpPointQuery, int(key), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q1PointQuery, Key: key})
	}
	v, s := e.lockKey(key)
	defer e.unlockKey(s)
	return e.pointQueryAt(v, key)
}

// pointQueryAt serves a point query under a pinned snapshot (caller holds
// the stripe owning key — or every stripe, for Views): the physical count
// plus one for every staged move whose row is still visible at its old key.
func (e *Engine) pointQueryAt(v *routeSnap, key int64) int {
	n := 0
	e.shards[v.part.Shard(key)].read(func(t *table.Table) { n = t.PointQuery(key) })
	hits := 0
	v.moves.forRange(key, key, func(*pendingMove) { n++; hits++ })
	e.compHit(int(key), hits)
	return n
}

// RangeCount counts live rows with keys in [lo, hi] (Q2).
func (e *Engine) RangeCount(lo, hi int64) int {
	if hi < lo {
		return 0
	}
	tr := e.obs.OpBegin(obs.OpRangeCount, int(lo))
	defer e.obs.OpEnd(obs.OpRangeCount, int(lo), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q2RangeCount, Key: lo, Key2: hi})
	}
	v, a, b := e.lockSpan(lo, hi)
	defer e.unlockSpan(a, b)
	return e.rangeCountAt(v, lo, hi)
}

func (e *Engine) rangeCountAt(v *routeSnap, lo, hi int64) int {
	n := int(e.foldShards(v, lo, hi, func(t *table.Table) int64 { return int64(t.RangeCount(lo, hi)) }))
	hits := 0
	v.moves.forRange(lo, hi, func(*pendingMove) { n++; hits++ })
	e.compHit(int(lo), hits)
	return n
}

// RangeSum sums the keys of live rows in [lo, hi] (Q3).
func (e *Engine) RangeSum(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	tr := e.obs.OpBegin(obs.OpRangeSum, int(lo))
	defer e.obs.OpEnd(obs.OpRangeSum, int(lo), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q3RangeSum, Key: lo, Key2: hi})
	}
	v, a, b := e.lockSpan(lo, hi)
	defer e.unlockSpan(a, b)
	return e.rangeSumAt(v, lo, hi)
}

func (e *Engine) rangeSumAt(v *routeSnap, lo, hi int64) int64 {
	sum := e.foldShards(v, lo, hi, func(t *table.Table) int64 { return t.RangeSum(lo, hi) })
	hits := 0
	v.moves.forRange(lo, hi, func(m *pendingMove) { sum += m.old; hits++ })
	e.compHit(int(lo), hits)
	return sum
}

// MultiRangeSum runs the TPC-H-Q6-shaped query across all spanned shards.
func (e *Engine) MultiRangeSum(lo, hi int64, filters []table.PayloadFilter, sumCol int) int64 {
	if hi < lo {
		return 0
	}
	tr := e.obs.OpBegin(obs.OpMultiRange, int(lo))
	defer e.obs.OpEnd(obs.OpMultiRange, int(lo), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q7MultiRange, Key: lo, Key2: hi})
	}
	v, a, b := e.lockSpan(lo, hi)
	defer e.unlockSpan(a, b)
	return e.multiRangeSumAt(v, lo, hi, filters, sumCol)
}

func (e *Engine) multiRangeSumAt(v *routeSnap, lo, hi int64, filters []table.PayloadFilter, sumCol int) int64 {
	sum := e.foldShards(v, lo, hi, func(t *table.Table) int64 { return t.MultiRangeSum(lo, hi, filters, sumCol) })
	hits := 0
	v.moves.forRange(lo, hi, func(m *pendingMove) {
		hits++
		for _, f := range filters {
			if x := m.row[f.Col]; x < f.Lo || x > f.Hi {
				return
			}
		}
		sum += int64(m.row[sumCol])
	})
	e.compHit(int(lo), hits)
	return sum
}

// Payload returns payload column col of one row with the given key. Like
// the other reads it feeds the drift monitor (as a point access — it scans
// the same partition a Q1 of the key would), so payload-heavy workloads
// drive retraining too.
func (e *Engine) Payload(key int64, col int) (int32, bool) {
	tr := e.obs.OpBegin(obs.OpPayload, int(key))
	defer e.obs.OpEnd(obs.OpPayload, int(key), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q1PointQuery, Key: key})
	}
	v, s := e.lockKey(key)
	defer e.unlockKey(s)
	return e.payloadAt(v, key, col)
}

func (e *Engine) payloadAt(v *routeSnap, key int64, col int) (int32, bool) {
	var val int32
	var ok bool
	e.shards[v.part.Shard(key)].read(func(t *table.Table) { val, ok = t.Payload(key, col) })
	if !ok {
		hits := 0
		v.moves.forRange(key, key, func(m *pendingMove) {
			hits++
			if !ok && col < len(m.row) {
				val, ok = m.row[col], true
			}
		})
		e.compHit(int(key), hits)
	}
	return val, ok
}

// Len returns the live row count across all shards. It pins a routing
// snapshot under the whole-fleet read gate like every other read and is
// counted in the metrics registry (OpLen); it deliberately does NOT feed
// the drift monitor — a fleet-wide row count has no key locality, so
// recording it would only dilute the access-pattern window retraining
// learns from.
func (e *Engine) Len() int {
	tr := e.obs.OpBegin(obs.OpLen, 0)
	defer e.obs.OpEnd(obs.OpLen, 0, tr)
	e.rlockAll()
	defer e.runlockAll()
	return e.lenAt(e.loadRoute())
}

func (e *Engine) lenAt(v *routeSnap) int {
	n := v.moves.len() // staged rows are live at their old key
	for _, s := range e.shards {
		s.read(func(t *table.Table) { n += t.Len() })
	}
	return n
}

// Chunks returns the total column chunk count across all shards.
//
// Read-consistency contract: Chunks holds every gate stripe shared, so the
// boundary set and row placement it observes belong to one routing
// snapshot — it can never see the half-installed state inside a rebalance
// publish window (rows parked off-table, destination tables mid-seed).
// Per-shard chunk counts are still read one shard at a time under each
// shard's swap lock, so concurrent single-shard writes and retrain swaps —
// which do not pass the move gate — may land between shard visits.
//
// Like Len, Chunks is metered (OpChunks) but does not feed the drift
// monitor: it has no key locality to learn from.
func (e *Engine) Chunks() int {
	tr := e.obs.OpBegin(obs.OpChunks, 0)
	defer e.obs.OpEnd(obs.OpChunks, 0, tr)
	e.rlockAll()
	defer e.runlockAll()
	n := 0
	for _, s := range e.shards {
		s.read(func(t *table.Table) { n += t.Chunks() })
	}
	return n
}

// View is a move-stable multi-query read handle pinned to one routing
// snapshot: while the callback of Engine.View runs, every gate stripe is
// held shared, so no cross-shard move can stage or publish and no
// rebalance can install — the epoch, the partitioner, and the staged-move
// registry the view routes through are one frozen routeSnap. Invariants
// that span several queries and depend only on move atomicity hold exactly
// (e.g. a row being moved between shards is counted exactly once by
// PointQuery(old)+PointQuery(new)). It is not a full snapshot: single-shard
// writes (Insert, Delete, same-shard UpdateKey) do not pass through the
// move gate and may land between the view's queries.
type View struct {
	e     *Engine
	v     *routeSnap
	epoch uint64
}

// View runs fn over a move-stable read handle pinned at the current epoch
// and routing snapshot. Queries must go through the View's methods; calling
// Engine methods (or nesting Views) from inside fn can deadlock against a
// queued move. Writes and single queries do not need View — every
// individual engine query pins a snapshot of its own.
func (e *Engine) View(fn func(*View)) {
	e.rlockAll()
	defer e.runlockAll()
	fn(&View{e: e, v: e.loadRoute(), epoch: e.epoch.Now()})
}

// Epoch returns the epoch the view is pinned at. No cross-shard move can
// advance it while the view is live.
func (v *View) Epoch() uint64 { return v.epoch }

// PointQuery is Engine.PointQuery under the view's snapshot. View queries
// are metered on the same per-op counters as their Engine counterparts.
func (v *View) PointQuery(key int64) int {
	tr := v.e.obs.OpBegin(obs.OpPointQuery, int(key))
	defer v.e.obs.OpEnd(obs.OpPointQuery, int(key), tr)
	return v.e.pointQueryAt(v.v, key)
}

// RangeCount is Engine.RangeCount under the view's snapshot.
func (v *View) RangeCount(lo, hi int64) int {
	if hi < lo {
		return 0
	}
	tr := v.e.obs.OpBegin(obs.OpRangeCount, int(lo))
	defer v.e.obs.OpEnd(obs.OpRangeCount, int(lo), tr)
	return v.e.rangeCountAt(v.v, lo, hi)
}

// RangeSum is Engine.RangeSum under the view's snapshot.
func (v *View) RangeSum(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	tr := v.e.obs.OpBegin(obs.OpRangeSum, int(lo))
	defer v.e.obs.OpEnd(obs.OpRangeSum, int(lo), tr)
	return v.e.rangeSumAt(v.v, lo, hi)
}

// MultiRangeSum is Engine.MultiRangeSum under the view's snapshot.
func (v *View) MultiRangeSum(lo, hi int64, filters []table.PayloadFilter, sumCol int) int64 {
	if hi < lo {
		return 0
	}
	tr := v.e.obs.OpBegin(obs.OpMultiRange, int(lo))
	defer v.e.obs.OpEnd(obs.OpMultiRange, int(lo), tr)
	return v.e.multiRangeSumAt(v.v, lo, hi, filters, sumCol)
}

// Payload is Engine.Payload under the view's snapshot.
func (v *View) Payload(key int64, col int) (int32, bool) {
	tr := v.e.obs.OpBegin(obs.OpPayload, int(key))
	defer v.e.obs.OpEnd(obs.OpPayload, int(key), tr)
	return v.e.payloadAt(v.v, key, col)
}

// Len is Engine.Len under the view's snapshot.
func (v *View) Len() int {
	tr := v.e.obs.OpBegin(obs.OpLen, 0)
	defer v.e.obs.OpEnd(obs.OpLen, 0, tr)
	return v.e.lenAt(v.v)
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

// Insert adds a row with the given key (Q4). The signature has no error to
// return, so on a durable engine a failed WAL append/fsync is held as the
// log's sticky error and surfaces on the next Delete/UpdateKey, SyncWAL,
// Checkpoint, or Close — callers needing per-insert durability confirmation
// should follow the batch with SyncWAL. For the same reason Insert never
// sheds under admission control: it blocks until admitted (tenant lane 0).
// Use Engine.Writer for per-tenant lanes and ErrOverload-style shedding.
func (e *Engine) Insert(key int64) {
	_ = e.admit(0, false)
	_ = e.insertAdmitted(key)
}

// insertAdmitted is the write path below admission.
func (e *Engine) insertAdmitted(key int64) error {
	tr := e.obs.OpBegin(obs.OpInsert, int(key))
	defer e.obs.OpEnd(obs.OpInsert, int(key), tr)
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q4Insert, Key: key})
	}
	return e.mutate(&wal.Record{Kind: wal.RecInsert, Key: key},
		func(t *table.Table, _ bool) error { t.Insert(key); return nil })
}

// Delete removes one row with the given key (Q5). While a shadow retrain is
// journaling (or a WAL is attached), the deleted row's payload is captured
// for the journal/WAL record, so the replayed delete removes the same
// duplicate the live table dropped; the uncaptured fast path stays a plain
// delete with no payload copy. The operation feeds the drift monitor only
// when it succeeds. Under admission control the op is gated on tenant lane
// 0 and may return ErrOverload without having been applied.
func (e *Engine) Delete(key int64) error { return e.Writer(0).Delete(key) }

// deleteAdmitted is the write path below admission.
func (e *Engine) deleteAdmitted(key int64) error {
	// Metered per attempt (a failed delete is still a call an operator
	// wants counted); the drift monitor below keeps its success-only rule.
	tr := e.obs.OpBegin(obs.OpDelete, int(key))
	defer e.obs.OpEnd(obs.OpDelete, int(key), tr)
	r := &wal.Record{Kind: wal.RecDelete, Key: key}
	err := e.mutate(r, func(t *table.Table, capture bool) error {
		if !capture {
			return t.Delete(key)
		}
		row, terr := t.TakeRow(key)
		r.Row = row
		return terr
	})
	if err == errEmptyShard {
		return fmt.Errorf("shard: delete of absent key %d", key)
	}
	if err == nil && e.monitoring() {
		e.record(workload.Op{Kind: workload.Q5Delete, Key: key})
	}
	return err
}

// UpdateKey changes one row's key, preserving its payload (Q6). When the old
// and new keys live on different shards the update is a one-row migration
// (see the package comment): a concurrent reader observes the row on exactly
// one shard at all times — never on neither, never on both, and never with a
// torn payload — and an update of a row parked by an in-flight rebalance
// waits for that rebalance to publish, then moves the row. The operation
// feeds the drift monitor only when it succeeds. Under admission control the
// op is gated on tenant lane 0 and may return ErrOverload without having
// been applied.
func (e *Engine) UpdateKey(old, new int64) error { return e.Writer(0).UpdateKey(old, new) }

// updateKeyAdmitted is the write path below admission.
func (e *Engine) updateKeyAdmitted(old, new int64) error {
	if e.readonly {
		return ErrReadOnly
	}
	tr := e.obs.OpBegin(obs.OpUpdateKey, int(old))
	defer e.obs.OpEnd(obs.OpUpdateKey, int(old), tr)
	var err error
	for {
		p := e.loadPart()
		so, sn := p.Shard(old), p.Shard(new)
		var ok bool
		if so == sn {
			r := &wal.Record{Kind: wal.RecUpdate, Key: old, Key2: new}
			err, ok = e.shards[so].run(r, func(t *table.Table, capture bool) error {
				if !capture {
					return t.UpdateKey(old, new)
				}
				row, terr := t.UpdateKeyRow(old, new)
				r.Row = row
				return terr
			})
			if ok && err == errEmptyShard {
				err = fmt.Errorf("shard: update of absent key %d", old)
			}
		} else {
			err, ok = e.migrateRow(old, new)
		}
		if ok {
			break
		}
		// A concurrent rebalance changed the keys' routing; re-derive it.
	}
	if err == nil && e.monitoring() {
		e.record(workload.Op{Kind: workload.Q6Update, Key: old, Key2: new})
	}
	return err
}

// migrateRow moves one row from old's shard to new's as a one-row migration:
// one stage window parks it in the registry, one publish window lands it at
// new on its owner (see the package comment). A staged row that the
// destination rejects returns to its source at old and the error is
// reported — the row is never silently lost. ok=false asks the caller to
// retry as a same-shard update: a rebalance that published while this call
// queued on migrateMu put both keys on one shard.
func (e *Engine) migrateRow(old, new int64) (_ error, ok bool) {
	e.migrateMu.Lock()
	defer e.migrateMu.Unlock()
	p := e.loadPart() // stable until migrateMu drops: only migrations change it
	so, sn := p.Shard(old), p.Shard(new)
	if so == sn {
		return nil, false
	}
	if e.stage(so, []int64{old}, []int64{new}) == 0 {
		return fmt.Errorf("shard: update of absent key %d", old), true
	}
	e.obs.Event(obs.Event{Kind: obs.EvMoveStage, Shard: so, Rows: 1,
		Note: fmt.Sprintf("key %d -> %d (shard %d -> %d)", old, new, so, sn)})
	var res RebalanceResult
	pub, err := e.publish(p, nil, nil, &res)
	if res.Moved == 1 {
		e.obs.Event(obs.Event{Kind: obs.EvMovePublish, Shard: sn, Epoch: pub, Rows: 1,
			Note: fmt.Sprintf("key %d -> %d (shard %d -> %d)", old, new, so, sn)})
	}
	// After the row moved, an error reports lost durability, not a lost
	// move: the move is committed in memory either way, matching the state
	// a recovery from the last durable record would reconcile to.
	return err, true
}

// ---------------------------------------------------------------------------
// Batched execution
// ---------------------------------------------------------------------------

// Execute runs one operation, returning a sink value (query result or 1/0
// success flag for writes).
func (e *Engine) Execute(op workload.Op) int64 {
	switch op.Kind {
	case workload.Q1PointQuery:
		return int64(e.PointQuery(op.Key))
	case workload.Q2RangeCount:
		return int64(e.RangeCount(op.Key, op.Key2))
	case workload.Q3RangeSum:
		return e.RangeSum(op.Key, op.Key2)
	case workload.Q7MultiRange:
		return e.MultiRangeSum(op.Key, op.Key2, nil, 0)
	case workload.Q8Scan:
		c := e.Scan(op.Key, op.Key2, ScanOptions{Limit: op.Limit})
		var n int64
		for c.Next() {
			n++
		}
		c.Close()
		return n
	case workload.Q4Insert:
		e.Insert(op.Key)
		return 1
	case workload.Q5Delete:
		if err := e.Delete(op.Key); err == nil {
			return 1
		}
		return 0
	case workload.Q6Update:
		if err := e.UpdateKey(op.Key, op.Key2); err == nil {
			return 1
		}
		return 0
	}
	return 0
}

// ExecuteAll runs the operations serially in order.
func (e *Engine) ExecuteAll(ops []workload.Op) int64 {
	var sink int64
	for _, op := range ops {
		sink += e.Execute(op)
	}
	return sink
}

// executeGroups runs every non-empty group on its own goroutine, each in
// order, and returns the summed sinks.
func (e *Engine) executeGroups(groups [][]workload.Op) int64 {
	var wg sync.WaitGroup
	sums := make([]int64, len(groups))
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, g []workload.Op) {
			defer wg.Done()
			sums[i] = e.ExecuteAll(g)
		}(i, g)
	}
	wg.Wait()
	var sink int64
	for _, s := range sums {
		sink += s
	}
	return sink
}

// ExecuteParallel spreads the operations over the given number of worker
// goroutines regardless of shard affinity; shard and chunk locks serialize
// conflicting writes.
func (e *Engine) ExecuteParallel(ops []workload.Op, workers int) int64 {
	if workers <= 1 {
		return e.ExecuteAll(ops)
	}
	per := (len(ops) + workers - 1) / workers
	groups := make([][]workload.Op, 0, workers)
	for lo := 0; lo < len(ops); lo += per {
		groups = append(groups, ops[lo:min(lo+per, len(ops))])
	}
	return e.executeGroups(groups)
}

// ApplyBatch groups the operations by owning shard and applies each group on
// its own goroutine — the batched write path. Single-shard operations keep
// their relative order within a shard; operations spanning shards (range
// reads under hash partitioning, cross-shard updates) run after the
// per-shard waves. The returned sink is order-independent for disjoint-key
// batches.
func (e *Engine) ApplyBatch(ops []workload.Op) int64 {
	n := len(e.shards)
	if n == 1 {
		return e.ExecuteAll(ops)
	}
	// The grouping is advisory: Execute re-routes each operation when it
	// runs, so a rebalance landing mid-batch costs locality, not correctness.
	p := e.loadPart()
	groups := make([][]workload.Op, n)
	var cross []workload.Op
	for _, op := range ops {
		// RouteOp yields every shard the op touches; single-shard ops
		// join that shard's parallel group, multi-shard ops go to the
		// cross wave.
		first, touched := -1, 0
		workload.RouteOp(op, p.Shard, p.Span, func(s int) {
			if touched == 0 {
				first = s
			}
			touched++
		})
		if touched == 1 {
			groups[first] = append(groups[first], op)
		} else {
			cross = append(cross, op)
		}
	}
	return e.executeGroups(groups) + e.ExecuteAll(cross)
}

// Pending is a handle to an asynchronously applied batch.
type Pending struct {
	ch chan int64
}

// Wait blocks until the batch has been applied and returns its sink value.
func (p *Pending) Wait() int64 { return <-p.ch }

// ApplyBatchAsync applies the batch on a background goroutine, returning
// immediately with a handle the caller can Wait on.
func (e *Engine) ApplyBatchAsync(ops []workload.Op) *Pending {
	p := &Pending{ch: make(chan int64, 1)}
	go func() { p.ch <- e.ApplyBatch(ops) }()
	return p
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

// Train re-partitions every shard for the sampled workload. The sample is
// split per shard (range ops feed every spanned shard, updates both
// endpoints), then the shards train concurrently, dividing the solver
// parallelism between them. Training mutates layouts in place under chunk
// locks; use the background retrainer for non-blocking re-layout.
func (e *Engine) Train(sample []workload.Op, parallelism int) error {
	p := e.loadPart()
	return e.trainShards(workload.SplitByShard(sample, len(e.shards), p.Shard, p.Span), parallelism)
}

// trainShards trains shard i in place on per[i], then rebases the drift
// monitors and checkpoints; shared by Train (one sample, split by routing)
// and Retrain (each shard's own monitor window).
func (e *Engine) trainShards(per [][]workload.Op, parallelism int) error {
	if parallelism < 1 {
		parallelism = 1
	}
	n := len(e.shards)
	conc := n
	if parallelism < conc {
		conc = parallelism
	}
	solverPar := parallelism / conc
	if solverPar < 1 {
		solverPar = 1
	}
	sem := make(chan struct{}, conc)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		s := e.shards[i]
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s *shard) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = e.trainShard(i, s, per[i], solverPar)
		}(i, s)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	// The layouts now match the sample's distribution: rebase each trained
	// shard's drift monitor onto its slice of the sample so the retrainer
	// and the admission governor measure drift (and retrain lag) against
	// what was actually trained. Shards the sample never touched keep their
	// no-baseline state — they still count as fully drifted, preserving
	// the retrainer's first-train trigger.
	for i, s := range e.shards {
		if len(per[i]) > 0 {
			s.mon.rebaseToSample(per[i], e.bucket)
		}
	}
	// In-place training changes no logical rows, so nothing reaches the
	// WAL; checkpointing persists the learned layouts so recovery restores
	// them without re-running the solver.
	return e.Checkpoint()
}

// trainShard runs an in-place TrainLayout on one shard, serialized against
// shadow retrains (it waits for an in-flight one rather than failing).
func (e *Engine) trainShard(i int, s *shard, sample []workload.Op, parallelism int) error {
	s.layoutMu.Lock()
	defer s.layoutMu.Unlock()
	var err error
	s.read(func(t *table.Table) { err = t.TrainLayout(sample, parallelism) })
	return err
}

// LayoutSummary describes one chunk's physical layout within a shard.
type LayoutSummary struct {
	Shard      int
	Chunk      int
	Partitions int
	Sizes      []int
	Ghosts     []int
}

// Layouts reports the current physical layout of every shard's partitioned
// chunks.
func (e *Engine) Layouts() []LayoutSummary {
	var out []LayoutSummary
	for i, s := range e.shards {
		s.read(func(t *table.Table) {
			for _, l := range t.Layouts() {
				out = append(out, LayoutSummary{
					Shard:      i,
					Chunk:      l.Chunk,
					Partitions: l.Partitions,
					Sizes:      l.Sizes,
					Ghosts:     l.Ghosts,
				})
			}
		})
	}
	return out
}

// Close stops the background retrainer and rebalancer if running and, on a
// durable engine, fsyncs and closes every shard's WAL, returning the first
// failure — under SyncNone/SyncInterval this final fsync is what makes the
// latest writes durable, so the error must not be swallowed. A closed
// durable engine keeps serving reads; further writes fail their durability
// commit.
func (e *Engine) Close() error {
	e.stopAdmission()
	e.StopAutoRetrain()
	e.StopAutoRebalance()
	var first error
	if e.durable {
		for i, s := range e.shards {
			if s.log == nil {
				continue
			}
			if err := s.log.Close(); err != nil && first == nil {
				first = fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return first
}
