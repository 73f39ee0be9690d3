package main

// The -scenario mode: replay one of the adversarial phased workloads from
// internal/workload (zipf-hot, flashcrowd, diurnal, tenant-skew, htap-sweep,
// or "all") against a durable engine running its full background machinery —
// auto-retrainer, auto-rebalancer, periodic checkpointer, and a WAL-tailing
// follower — and report ops/s, client-observed p99 latency, rows moved by
// rebalancing, the admission-control shed fraction, and follower lag.
//
// The flashcrowd scenario runs twice: once uncontrolled and once with
// admission control enabled, so the artifact shows what the token bucket
// buys during the 50x write spike — the crowd's excess writes are shed with
// ErrOverload instead of queueing behind the engine, which bounds the
// latency every surviving operation observes.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"casper"
	"casper/internal/workload"
)

// scenarioBaseRate is the offered load, in ops/s, of a Rate-1 phase. Phase
// rates from the scenario spec multiply it (flashcrowd's crowd phase offers
// 50x this). The admission limit for controlled runs sits well above the
// calm write rate and far below the crowd's.
const (
	scenarioBaseRate     = 4_000.0
	scenarioWriteLimit   = 6_000.0 // MaxWriteRate for admission-on runs
	scenarioWriteBurst   = 500
	scenarioReplayWorker = 4
)

type scenarioPhaseResult struct {
	Phase       string  `json:"phase"`
	Ops         int     `json:"ops"`
	OfferedRate float64 `json:"offered_ops_per_sec"`
	OpsPerSec   float64 `json:"achieved_ops_per_sec"`
	P99Us       float64 `json:"p99_us"`
	Shed        uint64  `json:"shed"`
}

type scenarioResult struct {
	Scenario     string                `json:"scenario"`
	Admission    bool                  `json:"admission"`
	Ops          int                   `json:"ops"`
	ElapsedMs    float64               `json:"elapsed_ms"`
	OpsPerSec    float64               `json:"ops_per_sec"`
	P99Us        float64               `json:"p99_us"`
	RowsMoved    uint64                `json:"rows_moved"`
	Rebalances   uint64                `json:"rebalances"`
	Retrains     uint64                `json:"retrains"`
	Checkpoints  uint64                `json:"checkpoints"`
	Admitted     uint64                `json:"admitted"`
	Shed         uint64                `json:"shed"`
	ShedFraction float64               `json:"shed_fraction"`
	MaxLagMs     float64               `json:"max_replica_lag_ms"`
	FinalLagMs   float64               `json:"final_replica_lag_ms"`
	LeaderRows   int                   `json:"leader_rows"`
	FollowerRows int                   `json:"follower_rows"`
	Phases       []scenarioPhaseResult `json:"phases"`
}

type scenarioArtifact struct {
	Benchmark string           `json:"benchmark"`
	Rows      int              `json:"rows"`
	Ops       int              `json:"ops"`
	Shards    int              `json:"shards"`
	BaseRate  float64          `json:"base_ops_per_sec"`
	Seed      int64            `json:"seed"`
	HostCPUs  int              `json:"host_cpus"`
	GoVersion string           `json:"go_version"`
	Results   []scenarioResult `json:"results"`
}

// runScenario replays the named scenario (or every scenario for "all") and
// writes the JSON artifact to outPath.
func runScenario(name string, rows, measuredOps int, seed int64, outPath string) error {
	if rows <= 0 {
		rows = 100_000
	}
	if measuredOps <= 0 {
		measuredOps = 20_000
	}
	names := []string{name}
	if name == "all" {
		names = workload.ScenarioNames()
	}

	art := scenarioArtifact{
		Benchmark: "casperbench -scenario",
		Rows:      rows,
		Ops:       measuredOps,
		Shards:    4,
		BaseRate:  scenarioBaseRate,
		Seed:      seed,
		HostCPUs:  runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	for _, n := range names {
		runs := []bool{false}
		if n == workload.ScenarioFlashCrowd {
			runs = []bool{false, true} // uncontrolled baseline, then admission on
		}
		for _, adm := range runs {
			res, err := runOneScenario(n, rows, measuredOps, seed, adm)
			if err != nil {
				return fmt.Errorf("scenario %s (admission=%v): %w", n, adm, err)
			}
			art.Results = append(art.Results, *res)
		}
	}

	// Headline comparison when both flashcrowd runs are present.
	var base, ctrl *scenarioResult
	for i := range art.Results {
		r := &art.Results[i]
		if r.Scenario == workload.ScenarioFlashCrowd {
			if r.Admission {
				ctrl = r
			} else {
				base = r
			}
		}
	}
	if base != nil && ctrl != nil {
		fmt.Printf("\nflashcrowd, uncontrolled vs admission:\n")
		fmt.Printf("  p99            %10.1fµs -> %10.1fµs\n", base.P99Us, ctrl.P99Us)
		fmt.Printf("  shed fraction  %10.3f   -> %10.3f\n", base.ShedFraction, ctrl.ShedFraction)
	}

	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nartifact written to %s\n", outPath)
	return nil
}

// runOneScenario builds a fresh durable engine, starts every background
// worker plus a follower, replays the scenario's phases at their offered
// rates, and collects the result row.
func runOneScenario(name string, rows, measuredOps int, seed int64, admission bool) (*scenarioResult, error) {
	spec, err := workload.Scenario(name, measuredOps, seed)
	if err != nil {
		return nil, err
	}
	domain := int64(rows) * 10
	keys := casper.UniformKeys(rows, domain, seed)
	stream, err := workload.GenerateScenario(keys, domain, spec)
	if err != nil {
		return nil, err
	}
	tenants := stream.TenantCount
	if tenants < 1 {
		tenants = 1
	}

	root, err := os.MkdirTemp("", "casperbench-scenario-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	opts := casper.Options{
		Mode:         casper.ModeCasper,
		Shards:       4,
		ShardByRange: true,
		Dir:          root,
		Sync:         casper.SyncModeNone,
	}
	if admission {
		opts.Admission = casper.AdmissionPolicy{
			MaxWriteRate: scenarioWriteLimit,
			Burst:        scenarioWriteBurst,
			MaxWait:      0, // shed immediately: the flash crowd gets ErrOverload
			Tenants:      tenants,
		}
	}
	eng, err := casper.Open(keys, opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	eng.EnableMetrics()

	// Train on a sibling stream (same shape, different seed) so the drift
	// monitor starts from a real baseline and the governor sees honest
	// drift, not the "never trained" floor.
	trainSpec := spec
	trainSpec.Seed = seed + 1
	trainStream, err := workload.GenerateScenario(keys, domain, trainSpec)
	if err != nil {
		return nil, err
	}
	if err := eng.Train(trainStream.AllOps(), runtime.NumCPU()); err != nil {
		return nil, err
	}

	// The full background cast: retrainer, rebalancer, checkpointer.
	if err := eng.StartAutoRetrain(casper.RetrainPolicy{CheckEvery: 50 * time.Millisecond}); err != nil {
		return nil, err
	}
	// MaxSkew 1.1 (default 1.5) so the modest drift a 20k-op scenario can
	// build against a 100k-row table still exercises the rebalancer.
	if err := eng.StartAutoRebalance(casper.RebalancePolicy{CheckEvery: 50 * time.Millisecond, MaxSkew: 1.1, MinOps: 256}); err != nil {
		return nil, err
	}
	ckptDone := make(chan struct{})
	var ckptOnce sync.Once
	stopCkpt := func() { ckptOnce.Do(func() { close(ckptDone) }) }
	var checkpoints uint64
	go func() {
		t := time.NewTicker(150 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ckptDone:
				return
			case <-t.C:
				if eng.Checkpoint() == nil {
					atomic.AddUint64(&checkpoints, 1)
				}
			}
		}
	}()
	defer stopCkpt()

	// A follower tails the leader's WAL for the whole run.
	follower, err := casper.OpenFollower(root, opts)
	if err != nil {
		return nil, err
	}
	defer follower.Close()
	lagDone := make(chan struct{})
	var maxLagNs int64
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-lagDone:
				return
			case <-t.C:
				if lag := int64(follower.Lag()); lag > atomic.LoadInt64(&maxLagNs) {
					atomic.StoreInt64(&maxLagNs, lag)
				}
			}
		}
	}()

	res := &scenarioResult{Scenario: name, Admission: admission, Ops: stream.TotalOps()}
	fmt.Printf("scenario %-12s admission=%-5v %d ops, %d rows, 4 shards\n", name, admission, res.Ops, rows)

	writers := make([]*casper.Writer, tenants)
	for i := range writers {
		writers[i] = eng.Writer(i)
	}

	var allLat []int64
	start := time.Now()
	for _, ph := range stream.Phases {
		offered := scenarioBaseRate * ph.Rate
		phStart := time.Now()
		lat, shed := replayPhase(eng, writers, ph, offered)
		elapsed := time.Since(phStart)
		pr := scenarioPhaseResult{
			Phase:       ph.Name,
			Ops:         len(ph.Ops),
			OfferedRate: offered,
			OpsPerSec:   float64(len(ph.Ops)) / elapsed.Seconds(),
			P99Us:       p99us(lat),
			Shed:        shed,
		}
		res.Phases = append(res.Phases, pr)
		allLat = append(allLat, lat...)
		fmt.Printf("  %-10s %6d ops  offered %8.0f/s  achieved %8.0f/s  p99 %9.1fµs  shed %d\n",
			pr.Phase, pr.Ops, pr.OfferedRate, pr.OpsPerSec, pr.P99Us, pr.Shed)
	}
	res.ElapsedMs = time.Since(start).Seconds() * 1e3
	res.OpsPerSec = float64(res.Ops) / (res.ElapsedMs / 1e3)
	res.P99Us = p99us(allLat)

	// Quiesce before the convergence check. Order matters: stop the
	// background writers first — a rebalance racing this check appends a
	// MoveOut to one shard's log and the matching MoveIn to another's, and
	// under SyncModeNone one half can sit in an unflushed group-commit
	// buffer while the other is already on disk, so the follower applies a
	// torn pair, then sees empty polls and reports caught-up with rows
	// missing. Then flush the WAL so the stream's tail (the last client
	// writes included) is visible to the tailers at all.
	eng.StopAutoRetrain()
	eng.StopAutoRebalance()
	stopCkpt()
	if err := eng.SyncWAL(); err != nil {
		return nil, err
	}
	close(lagDone)
	if !follower.WaitCaughtUp(30 * time.Second) {
		return nil, fmt.Errorf("follower did not catch up within 30s (err=%v, lag=%v)",
			follower.Err(), follower.Lag())
	}
	res.MaxLagMs = float64(atomic.LoadInt64(&maxLagNs)) / 1e6
	res.FinalLagMs = follower.Lag().Seconds() * 1e3
	res.LeaderRows, res.FollowerRows = eng.Len(), follower.Len()
	if res.LeaderRows != res.FollowerRows {
		return nil, fmt.Errorf("row count diverged: leader %d, follower %d (pending moves %d, follower err %v, applied epoch %d, lag %v)",
			res.LeaderRows, res.FollowerRows, len(eng.PendingMoves()), follower.Err(), follower.AppliedEpoch(), follower.Lag())
	}

	snap := eng.Metrics()
	res.RowsMoved = snap.Rebalance.RowsMoved
	res.Rebalances = eng.Rebalances()
	res.Retrains = eng.Retrains()
	res.Checkpoints = atomic.LoadUint64(&checkpoints)
	res.Admitted = snap.Admission.Admitted
	res.Shed = snap.Admission.Shed
	if total := res.Admitted + res.Shed; total > 0 {
		res.ShedFraction = float64(res.Shed) / float64(total)
	}
	fmt.Printf("  => %8.0f ops/s  p99 %9.1fµs  moved %d rows (%d rebalances, %d retrains, %d ckpts)  shed %.3f  max lag %.2fms\n",
		res.OpsPerSec, res.P99Us, res.RowsMoved, res.Rebalances, res.Retrains, res.Checkpoints,
		res.ShedFraction, res.MaxLagMs)
	return res, nil
}

// replayPhase offers the phase's ops at the target rate across a small pool
// of clients: writes go through per-tenant Writer handles (so admission
// control sees the real lane), reads through Execute. Returns per-op
// latencies (ns) of the operations that ran and the count shed with
// ErrOverload. A client that falls behind the offered schedule stops
// sleeping — offered rate then degrades to the engine's actual capacity.
func replayPhase(eng *casper.Engine, writers []*casper.Writer, ph workload.ScenarioPhase, offered float64) ([]int64, uint64) {
	workers := scenarioReplayWorker
	if len(ph.Ops) < workers {
		workers = 1
	}
	interval := time.Duration(float64(workers) / offered * float64(time.Second))
	lats := make([][]int64, workers)
	var shed uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := make([]int64, 0, len(ph.Ops)/workers+1)
			next := time.Now()
			for i := w; i < len(ph.Ops); i += workers {
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				next = next.Add(interval)
				op := ph.Ops[i]
				tenant := 0
				if ph.Tenants != nil {
					tenant = ph.Tenants[i]
				}
				t0 := time.Now()
				err := runScenarioOp(eng, writers[tenant], op)
				if errors.Is(err, casper.ErrOverload) {
					atomic.AddUint64(&shed, 1)
					continue // shed ops don't count toward latency
				}
				local = append(local, int64(time.Since(t0)))
			}
			lats[w] = local
		}(w)
	}
	wg.Wait()
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, shed
}

// runScenarioOp routes one op: writes through the tenant's Writer (admission
// lane), reads through the engine. Non-overload write errors (not-found
// deletes/updates against a key another client just removed) are expected
// in a concurrent replay and ignored.
func runScenarioOp(eng *casper.Engine, w *casper.Writer, op workload.Op) error {
	switch op.Kind {
	case workload.Q4Insert:
		return w.Insert(op.Key)
	case workload.Q5Delete:
		return w.Delete(op.Key)
	case workload.Q6Update:
		return w.UpdateKey(op.Key, op.Key2)
	default:
		eng.Execute(op)
		return nil
	}
}

// p99us returns the 99th-percentile latency in microseconds.
func p99us(lat []int64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := len(lat) * 99 / 100
	if idx >= len(lat) {
		idx = len(lat) - 1
	}
	return float64(lat[idx]) / 1e3
}
