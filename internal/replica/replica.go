// Package replica implements WAL-shipping replication stages 1–2 (ROADMAP):
// an in-process Follower that bootstraps from the newest checkpoint in a
// live engine's directory, tails each shard's WAL segments (including the
// growing final segment — wal.Tailer), and applies epoch-ordered records to
// its own read-only shard set, serving View-consistent reads at its applied
// epoch.
//
// The follower keeps no durable state of its own: it never writes to the
// leader's directory (checkpoint and manifest reads only, tailing reads of
// segments), and a restarted follower simply re-bootstraps from whatever
// checkpoint is then newest. When the leader prunes a segment the follower
// has not reached yet (wal.ErrSegmentGone), the follower re-bootstraps the
// same way — the pruning checkpoint covers everything the segment held.
package replica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"casper/internal/obs"
	"casper/internal/shard"
	"casper/internal/wal"
)

// DefaultPollEvery is the tail polling interval when Options.PollEvery is
// zero: short enough that follower lag is dominated by ingest, not polling.
const DefaultPollEvery = 10 * time.Millisecond

// Options configures a Follower.
type Options struct {
	// PollEvery is the interval between tail polls (default
	// DefaultPollEvery).
	PollEvery time.Duration
}

// Follower is a read-only replica of the engine whose directory it tails.
// Reads are safe from any goroutine; the apply loop runs in the background
// until Close.
type Follower struct {
	cfg  shard.Config
	poll time.Duration

	// mu guards the engine/replicator/tailer triple, which is replaced
	// wholesale on re-bootstrap; readers take it shared for the length of
	// one engine method call.
	mu    sync.RWMutex
	eng   *shard.Engine
	rep   *shard.Replicator
	tails []*wal.Tailer

	// rounds counts completed poll rounds; emptyRound is the latest round
	// that polled nothing new (the follower was provably caught up with the
	// leader's visible tail when that round's polls ran). lastCaught is the
	// wall time of that observation, the base of the lag gauge.
	rounds     atomic.Uint64
	emptyRound atomic.Uint64
	lastCaught atomic.Int64 // unix nanos

	errMu sync.Mutex
	err   error // sticky terminal error; the apply loop has stopped

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Open bootstraps a follower from the newest checkpoints in cfg.Dir and
// starts its apply loop. cfg must carry the same table configuration the
// leader runs with (casper.OpenFollower derives both from one Options).
func Open(cfg shard.Config, opts Options) (*Follower, error) {
	poll := opts.PollEvery
	if poll <= 0 {
		poll = DefaultPollEvery
	}
	f := &Follower{
		cfg: cfg, poll: poll,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if err := f.bootstrap(); err != nil {
		return nil, err
	}
	f.lastCaught.Store(time.Now().UnixNano())
	go f.loop()
	return f, nil
}

// bootstrap (re)builds the engine from the newest checkpoints and opens one
// tailer per shard at the checkpoint's WAL position. Called from Open and,
// under f.mu, from the apply loop after ErrSegmentGone.
func (f *Follower) bootstrap() error {
	boot, err := shard.NewFollower(f.cfg)
	if err != nil {
		return fmt.Errorf("replica: bootstrap: %w", err)
	}
	tails := make([]*wal.Tailer, len(boot.FromSeqs))
	for i, seq := range boot.FromSeqs {
		t, err := wal.OpenTailer(shard.WALDir(f.cfg.Dir, i), seq)
		if err != nil {
			for _, u := range tails[:i] {
				u.Close()
			}
			return fmt.Errorf("replica: bootstrap: %w", err)
		}
		tails[i] = t
	}
	f.mu.Lock()
	f.eng, f.rep, f.tails = boot.Engine, boot.Engine.NewReplicator(boot.BoundsEpoch), tails
	f.mu.Unlock()
	return nil
}

// loop is the apply loop: poll every shard's tail, apply what arrived, track
// lag, re-bootstrap on segment pruning, stop on terminal errors or Close.
func (f *Follower) loop() {
	defer close(f.done)
	ticker := time.NewTicker(f.poll)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
		}
		if err := f.pollOnce(); err != nil {
			f.errMu.Lock()
			f.err = err
			f.errMu.Unlock()
			return
		}
	}
}

// pollOnce runs one poll round across every shard and applies the result in
// one epoch-ordered batch.
func (f *Follower) pollOnce() error {
	// The loop goroutine is the only mutator of the triple, so reading it
	// without f.mu is safe here; f.mu is for readers racing a re-bootstrap.
	var batch []shard.ReplicatedRecord
	for i, t := range f.tails {
		recs, err := t.Poll()
		for _, r := range recs {
			batch = append(batch, shard.ReplicatedRecord{Shard: i, Rec: r})
		}
		if err != nil {
			// Apply what this round already polled — the other shards'
			// records are real — then handle the failure.
			if _, aerr := f.rep.Apply(batch); aerr != nil {
				return fmt.Errorf("replica: apply: %w", aerr)
			}
			if wal.IsSegmentGone(err) {
				return f.rebootstrap()
			}
			return fmt.Errorf("replica: shard %d: %w", i, err)
		}
	}
	applied, err := f.rep.Apply(batch)
	if err != nil {
		return fmt.Errorf("replica: apply: %w", err)
	}
	round := f.rounds.Add(1)
	now := time.Now()
	if applied == 0 {
		// Nothing was visible beyond our position when the polls ran: the
		// follower is caught up as of this round.
		f.emptyRound.Store(round)
		f.lastCaught.Store(now.UnixNano())
		f.eng.Obs().ReplicaLagSeconds.SetFloat(0)
	} else {
		lag := now.Sub(time.Unix(0, f.lastCaught.Load()))
		f.eng.Obs().ReplicaLagSeconds.SetFloat(lag.Seconds())
	}
	return nil
}

// rebootstrap replaces the engine after a tailed segment was pruned out from
// under the follower. The old tailers are closed; the old engine needs no
// teardown (no logs, no workers). The records-applied counter carries over —
// it is cumulative per follower, not per engine incarnation.
func (f *Follower) rebootstrap() error {
	for _, t := range f.tails {
		t.Close()
	}
	applied := f.eng.Obs().ReplicaRecordsApplied.Total()
	if err := f.bootstrap(); err != nil {
		return err
	}
	f.eng.Obs().ReplicaRecordsApplied.Add(0, applied)
	return nil
}

// engine returns the current engine under the shared swap lock. Callers hold
// no other follower state across the call, so a re-bootstrap between two
// reads is indistinguishable from one racing the leader directly.
func (f *Follower) engine() *shard.Engine {
	f.mu.RLock()
	e := f.eng
	f.mu.RUnlock()
	return e
}

// Err returns the apply loop's terminal error, if it has stopped on one.
func (f *Follower) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// WaitCaughtUp blocks until the follower has applied everything the leader
// had made visible before the call, or the timeout elapses (false). Callers
// quiesce writes first; under continuous ingest the follower may never
// report caught-up.
func (f *Follower) WaitCaughtUp(timeout time.Duration) bool {
	// An empty round numbered >= r0+2 must have started after this call:
	// round r0+1 may already have been mid-poll when we loaded r0, but
	// r0+2's polls begin after r0+1 completes, which is after the load — so
	// they observe every append that happened before the call.
	r0 := f.rounds.Load()
	deadline := time.Now().Add(timeout)
	for {
		if f.emptyRound.Load() >= r0+2 {
			return true
		}
		if f.Err() != nil || time.Now().After(deadline) {
			return false
		}
		select {
		case <-f.stop:
			return false
		case <-time.After(time.Millisecond):
		}
	}
}

// Lag returns the current replication lag estimate: zero when the last poll
// round found nothing new, otherwise the time since the follower last
// observed itself caught up.
func (f *Follower) Lag() time.Duration {
	s := f.engine().Obs().ReplicaLagSeconds.LoadFloat()
	return time.Duration(s * float64(time.Second))
}

// AppliedEpoch returns the highest epoch the follower has applied (or
// bootstrapped from).
func (f *Follower) AppliedEpoch() uint64 {
	return f.engine().Obs().ReplicaAppliedEpoch.Load()
}

// Engine returns the follower's current read-only engine for direct reads.
// The engine is replaced on re-bootstrap; callers needing multi-query
// consistency use View on a single returned engine.
func (f *Follower) Engine() *shard.Engine { return f.engine() }

// Metrics returns the follower engine's metrics snapshot (Replica section
// populated).
func (f *Follower) Metrics() obs.Snapshot { return f.engine().Metrics() }

// Events returns the follower engine's journal events with Seq > since.
func (f *Follower) Events(since uint64) []obs.Event { return f.engine().Events(since) }

// Close stops the apply loop and releases the tailers. Idempotent; the
// engine keeps serving reads at its last applied state.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
	for _, t := range f.tails {
		t.Close()
	}
	return nil
}
