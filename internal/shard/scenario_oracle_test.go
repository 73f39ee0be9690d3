package shard

// The scenario test wall: every adversarial workload from
// internal/workload replayed serially against a durable range-sharded
// engine whose full background cast is live — auto-retrainer, a rebalancer
// (the auto-rebalancer's minimal proposals, or quantile re-splits of every
// boundary driven through RebalanceTo), and a periodic checkpointer —
// with every read checked query-by-query against the plain-slice oracle
// from rebalance_test.go. The property under test is that no combination of
// phased skew, window drift, tenant banding, or scan pressure ever makes a
// read observably wrong while retraining, rebalancing, and checkpointing
// race the replay; the final states (live engine, oracle, and a fresh
// engine recovered from the last checkpoint + WAL) must agree row for row.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"casper/internal/workload"
)

const (
	scenOracleRows   = 3_000
	scenOracleDomain = 100_000
	scenOracleOps    = 4_000
)

func TestScenarioOracleWall(t *testing.T) {
	for _, name := range workload.ScenarioNames() {
		for _, strat := range []string{"minimal", "quantile"} {
			name, quantile := name, strat == "quantile"
			t.Run(fmt.Sprintf("%s/%s", name, strat), func(t *testing.T) {
				t.Parallel()
				runScenarioOracle(t, name, quantile)
			})
		}
	}
}

// runScenarioOracle replays one scenario; quantile swaps the auto-rebalancer
// for a ticker that re-splits every boundary on the live keys' quantiles
// whenever the fleet is skewed — the heavy-migration stress.
func runScenarioOracle(t *testing.T, scenario string, quantile bool) {
	spec, err := workload.Scenario(scenario, scenOracleOps, 11)
	if err != nil {
		t.Fatal(err)
	}
	keys := workload.UniformKeys(scenOracleRows, scenOracleDomain, 5)
	stream, err := workload.GenerateScenario(keys, scenOracleDomain, spec)
	if err != nil {
		t.Fatal(err)
	}

	cfg := rebalanceConfig()
	cfg.Dir = t.TempDir()
	e, err := New(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartAutoRetrain(RetrainPolicy{CheckEvery: 10 * time.Millisecond, MinOps: 200}); err != nil {
		t.Fatal(err)
	}
	stopBG := make(chan struct{})
	var bgWG sync.WaitGroup
	if !quantile {
		if err := e.StartAutoRebalance(RebalancePolicy{
			CheckEvery: 10 * time.Millisecond,
			MaxSkew:    1.05,
			MinRows:    256,
			MinOps:     64,
		}); err != nil {
			t.Fatal(err)
		}
	} else {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopBG:
					return
				case <-tick.C:
					if e.Skew() >= 1.05 {
						_, _ = rebalanceQuantile(e) // durability errors are asserted at the end
					}
				}
			}
		}()
	}
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBG:
				return
			case <-tick.C:
				// Failures here are not errors: a checkpoint can lose the
				// race with a concurrent rebalance's install window. The
				// deterministic checkpoint after the replay is asserted.
				_ = e.Checkpoint()
			}
		}
	}()

	oracle := &sliceOracle{}
	for _, k := range keys {
		oracle.insert(k)
	}

	// Serial replay, every read checked against the oracle the moment it
	// runs. Phase boundaries yield briefly so the background workers get
	// scheduled against a quiesced stream too, not only mid-replay.
	for _, ph := range stream.Phases {
		for i, op := range ph.Ops {
			at := func() string { return fmt.Sprintf("phase %s op %d %+v", ph.Name, i, op) }
			switch op.Kind {
			case workload.Q1PointQuery:
				if got, want := e.Execute(op), int64(oracle.count(op.Key)); got != want {
					t.Fatalf("%s: point count = %d, oracle %d", at(), got, want)
				}
			case workload.Q2RangeCount:
				if got, want := e.Execute(op), int64(oracle.rangeCount(op.Key, op.Key2)); got != want {
					t.Fatalf("%s: range count = %d, oracle %d", at(), got, want)
				}
			case workload.Q3RangeSum:
				if got, want := e.Execute(op), oracle.rangeSum(op.Key, op.Key2); got != want {
					t.Fatalf("%s: range sum = %d, oracle %d", at(), got, want)
				}
			case workload.Q8Scan:
				want := int64(oracle.rangeCount(op.Key, op.Key2))
				if op.Limit > 0 && int64(op.Limit) < want {
					want = int64(op.Limit)
				}
				if got := e.Execute(op); got != want {
					t.Fatalf("%s: scan rows = %d, oracle %d", at(), got, want)
				}
			case workload.Q4Insert:
				e.Execute(op)
				oracle.insert(op.Key)
			case workload.Q5Delete:
				want := oracle.delete(op.Key)
				got := retryStagedWrite(want, func() bool { return e.Delete(op.Key) == nil })
				if got != want {
					t.Fatalf("%s: delete found = %v, oracle %v", at(), got, want)
				}
			case workload.Q6Update:
				want := oracle.update(op.Key, op.Key2)
				got := retryStagedWrite(want, func() bool { return e.UpdateKey(op.Key, op.Key2) == nil })
				if got != want {
					t.Fatalf("%s: update found = %v, oracle %v", at(), got, want)
				}
			default:
				t.Fatalf("%s: unexpected op kind", at())
			}
		}
		time.Sleep(15 * time.Millisecond)
	}

	close(stopBG)
	bgWG.Wait()
	e.StopAutoRetrain()
	e.StopAutoRebalance()

	// Final state: engine and oracle hold the same key multiset, every row
	// sits on the shard that owns it, and a cold recovery from the last
	// checkpoint + WAL reproduces the same multiset.
	assertPlacement(t, e)
	wantKeys := oracle.keysSorted()
	if got := engineKeys(e); !int64sEqual(got, wantKeys) {
		t.Fatalf("final multiset diverged: engine %d keys, oracle %d keys", len(got), len(wantKeys))
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	rec, err := New(nil, cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Close()
	if got := engineKeys(rec); !int64sEqual(got, wantKeys) {
		t.Fatalf("recovered multiset diverged: engine %d keys, oracle %d keys", len(got), len(wantKeys))
	}
}

// retryStagedWrite runs a Delete/UpdateKey attempt, honoring the documented
// staged-move contract: a Delete or same-shard UpdateKey that targets a row
// while a rebalance has it parked in the staged-move registry fails with
// "absent key" even though the row is live, and the caller retries after
// the rebalance publishes (a cross-shard UpdateKey waits on its own). When the
// oracle says the row exists, a not-found result is therefore retried (the
// publish window is bounded); a not-found against a row the oracle agrees
// is gone returns immediately.
func retryStagedWrite(want bool, attempt func() bool) bool {
	got := attempt()
	if got || !want {
		return got
	}
	deadline := time.Now().Add(5 * time.Second)
	for !got && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		got = attempt()
	}
	return got
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
