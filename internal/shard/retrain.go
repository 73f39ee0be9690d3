package shard

import (
	"fmt"
	"math"
	"sync"
	"time"

	"casper/internal/obs"
	"casper/internal/table"
	"casper/internal/workload"
)

// driftBuckets is the resolution of the per-shard access histogram used to
// detect workload drift.
const driftBuckets = 64

// monitor is a per-shard window of recent operations plus an access
// histogram compared against the histogram captured at the last training to
// decide when the layout has drifted out from under the workload. Monitor
// locks never nest inside gate stripes, shard locks, or table locks:
// Engine.record routes off an advisory snapshot load and is only called
// while its caller holds no stripe, shard, or table lock.
type monitor struct {
	mu         sync.Mutex
	cap        int
	ops        []workload.Op
	hist       [driftBuckets]float64
	baseline   [driftBuckets]float64
	hasBase    bool
	sinceTrain int
}

// record appends one operation to the window and its key bucket to the
// histogram, halving both when the window overflows so recent traffic
// dominates.
func (m *monitor) record(op workload.Op, bucket int) {
	m.mu.Lock()
	if len(m.ops) >= m.cap {
		copy(m.ops, m.ops[len(m.ops)-m.cap/2:])
		m.ops = m.ops[:m.cap/2]
		for i := range m.hist {
			m.hist[i] /= 2
		}
	}
	m.ops = append(m.ops, op)
	m.hist[bucket]++
	m.sinceTrain++
	m.mu.Unlock()
}

// stats returns the operations recorded since the last (re)train and the
// total-variation distance between the current access histogram and the
// baseline captured at that train (1 when no baseline exists yet).
func (m *monitor) stats() (since int, drift float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	since = m.sinceTrain
	if !m.hasBase {
		return since, 1
	}
	return since, tvDistance(m.hist, m.baseline)
}

// tvDistance is the total-variation distance between two histograms after
// normalization: 0.5 · Σ|p−q| ∈ [0, 1].
func tvDistance(a, b [driftBuckets]float64) float64 {
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	if sa == 0 || sb == 0 {
		return 0
	}
	var d float64
	for i := range a {
		d += math.Abs(a[i]/sa - b[i]/sb)
	}
	return d / 2
}

// sample snapshots the window for training without touching drift state, so
// a failed retrain leaves the trigger armed for the next tick.
func (m *monitor) sample() []workload.Op {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]workload.Op, len(m.ops))
	copy(out, m.ops)
	return out
}

// restart empties the window for a fresh explicit monitoring session,
// re-sizing it when cap > 0; drift state is untouched.
func (m *monitor) restart(cap int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cap > 0 {
		m.cap = cap
	}
	m.ops = m.ops[:0]
}

// rebase re-bases the drift baseline on the current histogram; called after
// a retrain actually completed.
func (m *monitor) rebase() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.baseline = m.hist
	m.hasBase = true
	m.sinceTrain = 0
}

// rebaseToSample re-bases the drift baseline on the key distribution of a
// training sample rather than the live window; called after a full
// Engine.Train so the governor and retrainer measure drift against the
// distribution the layouts were actually solved for. sinceTrain resets: the
// retrain-lag backlog is defined as ops since the layouts last matched the
// workload.
func (m *monitor) rebaseToSample(sample []workload.Op, bucketOf func(int64) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var base [driftBuckets]float64
	for _, op := range sample {
		base[bucketOf(op.Key)]++
	}
	m.baseline = base
	m.hasBase = true
	m.sinceTrain = 0
}

// StartMonitor begins an explicit monitoring session over the per-shard
// windows the background retrainer also samples: the windows restart empty
// (capacity > 0 re-sizes each shard's window) and every operation the engine
// serves is recorded until StopMonitor. There is one op-log per shard, not a
// second engine-wide ring, so the session costs the unmonitored hot path
// nothing beyond the monOn load it already pays.
func (e *Engine) StartMonitor(capacity int) {
	for _, s := range e.shards {
		s.mon.restart(capacity)
	}
	if e.userMon.CompareAndSwap(false, true) {
		e.monOn.Add(1)
	}
}

// StopMonitor ends the explicit session and returns what it captured (nil
// when none was active).
func (e *Engine) StopMonitor() []workload.Op {
	ops := e.Monitored()
	if e.userMon.CompareAndSwap(true, false) {
		e.monOn.Add(-1)
	}
	return ops
}

// Monitored returns the operations the explicit monitoring session currently
// holds, shard by shard in recording order; nil when no session is active.
// An operation touching several shards sits in each one's window (that is
// what trains them) but is reported once, from the shard owning its key.
func (e *Engine) Monitored() []workload.Op {
	if !e.userMon.Load() {
		return nil
	}
	p := e.loadPart()
	var out []workload.Op
	for i, s := range e.shards {
		for _, op := range s.mon.sample() {
			if p.Shard(op.Key) == i {
				out = append(out, op)
			}
		}
	}
	return out
}

// Retrain re-solves every shard's layout in place from its own monitor
// window — a foreground re-partitioning cycle over the explicit session
// (the background retrainer does the same per drifted shard, on a shadow).
// The session keeps recording.
func (e *Engine) Retrain(parallelism int) error {
	if !e.userMon.Load() {
		return fmt.Errorf("shard: Retrain requires an active monitor (call StartMonitor)")
	}
	per := make([][]workload.Op, len(e.shards))
	total := 0
	for i, s := range e.shards {
		per[i] = s.mon.sample()
		total += len(per[i])
	}
	if total == 0 {
		return fmt.Errorf("shard: no monitored operations to retrain from")
	}
	return e.trainShards(per, parallelism)
}

// RetrainPolicy tunes the background retrainer.
type RetrainPolicy struct {
	// CheckEvery is the drift check cadence (default 100ms).
	CheckEvery time.Duration
	// MinOps is the minimum number of operations a shard must observe
	// since its last training before it is considered (default 1000).
	MinOps int
	// MaxDrift triggers a retrain when the total-variation distance
	// between the shard's current access histogram and its at-training
	// baseline reaches this value (default 0.15). A shard that has never
	// been trained through the retrainer counts as fully drifted.
	MaxDrift float64
	// Parallelism is the per-retrain solver parallelism (default 1).
	Parallelism int
}

func (p RetrainPolicy) withDefaults() RetrainPolicy {
	if p.CheckEvery <= 0 {
		p.CheckEvery = 100 * time.Millisecond
	}
	if p.MinOps <= 0 {
		p.MinOps = 1000
	}
	if p.MaxDrift <= 0 {
		p.MaxDrift = 0.15
	}
	if p.Parallelism < 1 {
		p.Parallelism = 1
	}
	return p
}

// StartAutoRetrain launches the background retraining worker: it monitors
// every operation, and when a shard's access pattern drifts past the policy
// threshold it re-trains that shard's layout on a shadow copy and swaps the
// copy in atomically. Reads and writes keep flowing to the live table for
// the whole training; they are blocked only for the snapshot and the swap.
// Requires Casper mode.
func (e *Engine) StartAutoRetrain(p RetrainPolicy) error {
	if e.cfg.Mode != table.Casper {
		return fmt.Errorf("shard: auto-retrain requires Casper mode, have %v", e.cfg.Mode)
	}
	e.retrainMu.Lock()
	defer e.retrainMu.Unlock()
	if e.stopCh != nil {
		return fmt.Errorf("shard: auto-retrain already running")
	}
	p = p.withDefaults()
	e.stopCh = make(chan struct{})
	e.doneCh = make(chan struct{})
	e.monOn.Add(1)
	go e.retrainLoop(p, e.stopCh, e.doneCh)
	return nil
}

// StopAutoRetrain stops the worker and waits for any in-flight retrain to
// finish. Safe to call when no worker is running.
func (e *Engine) StopAutoRetrain() {
	e.retrainMu.Lock()
	defer e.retrainMu.Unlock()
	if e.stopCh == nil {
		return
	}
	close(e.stopCh)
	<-e.doneCh
	e.stopCh, e.doneCh = nil, nil
	e.monOn.Add(-1)
}

// Retrains returns the number of completed background shard retrains.
func (e *Engine) Retrains() uint64 { return e.retrains.Load() }

func (e *Engine) retrainLoop(p RetrainPolicy, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(p.CheckEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for i, s := range e.shards {
				select {
				case <-stop:
					return
				default:
				}
				since, drift := s.mon.stats()
				if since < p.MinOps || drift < p.MaxDrift {
					continue
				}
				sample := s.mon.sample()
				if err := e.RetrainShard(i, sample, p.Parallelism); err != nil {
					// Drift state is untouched, so the trigger stays
					// armed and the next tick retries.
					continue
				}
				s.mon.rebase()
			}
		}
	}
}

// RetrainShard re-solves shard i's layout for the sample on a shadow copy
// and swaps the shadow in. Writes that land during training are journaled
// as wal.Records against the outgoing table and replayed onto the shadow
// through applyRecord before the swap — the same applier recovery and
// followers use — so no mutation is lost; readers keep scanning the outgoing
// table and never observe an intermediate layout. Replay is byte-identical:
// journaled deletes and updates carry the payload of the row the live table
// actually touched, so with duplicate keys the shadow drops the same
// duplicate, and the halves of a cross-shard move journal into their shards
// with the epoch order the commit protocol established. Replay mismatches
// are counted into the retrain.swap event's note.
func (e *Engine) RetrainShard(i int, sample []workload.Op, parallelism int) error {
	return e.retrainShard(i, func(shadow *table.Table) error {
		return shadow.TrainLayout(sample, parallelism)
	})
}

// retrainShard is RetrainShard with the shadow training step injected, so
// tests can exercise the journal/swap machinery deterministically.
func (e *Engine) retrainShard(i int, train func(*table.Table) error) error {
	if i < 0 || i >= len(e.shards) {
		return fmt.Errorf("shard: retrain of unknown shard %d", i)
	}
	s := e.shards[i]
	s.layoutMu.Lock()
	defer s.layoutMu.Unlock()

	// One timer covers snapshot → shadow build/train → journal drain →
	// swap; the same measurement feeds the RetrainNs histogram and the
	// retrain.swap event so the two can never disagree.
	timer := obs.StartTimer()
	e.obs.Event(obs.Event{Kind: obs.EvRetrainStart, Shard: i})

	// Snapshot under the exclusive lock: no writer can slip a mutation
	// between the snapshot and the journal turning on.
	s.mu.Lock()
	if s.tbl == nil {
		s.mu.Unlock()
		return nil
	}
	keys, rows := s.tbl.Snapshot()
	s.jmu.Lock()
	s.journaling = true
	s.journal = s.journal[:0]
	s.jmu.Unlock()
	s.mu.Unlock()

	// journaling transitions must happen under the exclusive swap lock:
	// writers read the flag under the shared lock without touching jmu.
	stopJournal := func() {
		s.mu.Lock()
		s.journaling = false
		s.journal = nil
		s.mu.Unlock()
	}
	if len(keys) == 0 {
		stopJournal()
		return nil
	}

	// Build and train the shadow with no shard locks held: the live table
	// keeps serving reads and absorbing (journaled) writes.
	shadow, err := table.NewFromRows(keys, rows, s.cfg)
	if err != nil {
		stopJournal()
		return fmt.Errorf("shard %d: shadow build: %w", i, err)
	}
	if err := train(shadow); err != nil {
		stopJournal()
		return fmt.Errorf("shard %d: shadow train: %w", i, err)
	}

	// Swap: drain the journal onto the shadow through the shared applier,
	// then publish it. A mismatch (a journaled removal naming a row the
	// shadow does not hold) means the shadow diverged from the live table;
	// like recovery, the swap counts and surfaces it rather than aborting.
	s.mu.Lock()
	s.jmu.Lock()
	replayed, mismatches := len(s.journal), 0
	for _, r := range s.journal {
		if !applyRecord(shadow, r) {
			mismatches++
		}
	}
	s.journaling = false
	s.journal = nil
	s.jmu.Unlock()
	s.tbl = shadow
	s.mu.Unlock()
	e.retrains.Add(1)
	dur := timer.Elapsed()
	if e.obs.Enabled() {
		e.obs.RetrainNs.Observe(i, dur.Nanoseconds())
	}
	e.obs.Event(obs.Event{Kind: obs.EvRetrainSwap, Shard: i, Rows: len(keys), DurNs: dur.Nanoseconds(),
		Note: fmt.Sprintf("%d journal records replayed, %d replay mismatches", replayed, mismatches)})
	if e.durable {
		// Persist the freshly trained layout and truncate the WAL at the
		// swap: recovery then restores the new layout from the checkpoint
		// instead of re-running the solver. The swap itself is already
		// durable (journaled writes were WAL-logged as they happened), so
		// a checkpoint failure only delays truncation.
		if err := e.checkpointShard(i); err != nil {
			return fmt.Errorf("shard %d: post-retrain checkpoint: %w", i, err)
		}
	}
	return nil
}
