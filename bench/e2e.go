package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"casper"
)

// runOpts are the command-line choices for one run.
type runOpts struct {
	seed    int64
	seconds int
	scale   string
	trace   bool
	outDir  string
}

// guard bounds one replay at ten times the -seconds it was sized for (a pass
// gets its fifth of that): a shared host now and then runs several times
// slower for a minute, and a run that is slower still fails rather than
// report metrics over part of its stream.
func guard(seconds int) time.Duration { return 10 * time.Duration(seconds) * time.Second }

// engineSet is one built system under test.
type engineSet struct {
	eng  *casper.Engine
	fol  *casper.Follower // live follower on dir (durable runs only)
	dir  string
	keys []int64
}

func (es *engineSet) close() {
	if es.fol != nil {
		es.fol.Close()
	}
	if es.eng != nil {
		es.eng.Close()
	}
	if es.dir != "" {
		os.RemoveAll(es.dir)
	}
}

// buildStats times one build: key generation, Open, training-sample
// generation and Train, WAL bootstrap and follower open when durable.
type buildStats struct {
	setupS, trainS, heapPerRow float64
}

// build constructs the workload's engine in the given mode. dirRoot non-empty
// makes it durable in a fresh directory there; follower also opens a live
// follower on it. Garbage collection for the heap reading is outside the
// set-up clock.
func build(w spec, sz sizing, mode casper.Mode, dirRoot string, follower bool) (es engineSet, st buildStats, err error) {
	defer func() {
		if err != nil {
			es.close()
		}
	}()
	t0 := time.Now()
	es.keys = casper.UniformKeys(w.rows, w.domainMax(), keySeed)
	elapsed := time.Since(t0)
	if dirRoot != "" {
		if err = os.MkdirAll(dirRoot, 0o755); err != nil {
			return es, st, err
		}
		if es.dir, err = os.MkdirTemp(dirRoot, w.name+"-*"); err != nil {
			return es, st, err
		}
	}
	before := memStats(true)
	t0 = time.Now()
	opts := w.options(sz, mode, es.dir)
	if es.eng, err = casper.Open(es.keys, opts); err != nil {
		return es, st, err
	}
	if mode == casper.ModeCasper {
		sample, err := casper.PresetWorkload(w.preset, es.keys, w.domainMax(), sz.trainOps, trainSeed)
		if err != nil {
			return es, st, err
		}
		t1 := time.Now()
		if err := es.eng.Train(sample, runtime.NumCPU()); err != nil {
			return es, st, err
		}
		st.trainS = time.Since(t1).Seconds()
	}
	elapsed += time.Since(t0)
	after := memStats(true)
	st.heapPerRow = (float64(after.HeapInuse) - float64(before.HeapInuse)) / float64(w.rows)
	if follower {
		t0 = time.Now()
		if es.fol, err = casper.OpenFollower(es.dir, opts); err != nil {
			return es, st, err
		}
		elapsed += time.Since(t0)
	}
	st.setupS = elapsed.Seconds()
	return es, st, nil
}

// measured is what one closed-loop pass over the streams yields.
type measured struct {
	tls         []*timeline
	wallS       float64 // first op start → last op end over the preset part
	allocPerOp  float64
	checkpointS float64
}

// measure runs every client's preset part through execs (with the explicit
// mid-run checkpoint when ckpt is set), then each client's probe tail.
func measure(execs []func(i int) int64, streams []stream, clk clock, guard time.Duration, ckpt func() error) (measured, error) {
	m := measured{tls: make([]*timeline, len(streams))}
	zero, half, mainEnd := make([]int, len(streams)), make([]int, len(streams)), make([]int, len(streams))
	for c, s := range streams {
		m.tls[c] = newTimeline(len(s.ops))
		half[c], mainEnd[c] = s.main/2, s.main
	}
	deadline := clk.now() + int64(guard)
	before := memStats(true)
	if ckpt == nil {
		runClients(execs, m.tls, zero, mainEnd, clk, deadline)
	} else {
		runClients(execs, m.tls, zero, half, clk, deadline)
		t0 := clk.now()
		if err := ckpt(); err != nil {
			return m, fmt.Errorf("checkpoint: %w", err)
		}
		m.checkpointS = secs(clk.now() - t0)
		runClients(execs, m.tls, half, mainEnd, clk, deadline)
	}
	after := memStats(false)
	total := 0
	for c, t := range m.tls {
		if t.done() < mainEnd[c] {
			return m, fmt.Errorf("client %d passed the %v guard after %d of %d ops", c, guard, t.done(), mainEnd[c])
		}
		total += mainEnd[c]
	}
	m.wallS = wallOver(m.tls, mainEnd)
	m.allocPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(total)
	// Probe tails run one client at a time: they measure a class the preset
	// lacks on the state the run left behind, not contention.
	for c, s := range streams {
		if m.tls[c].run(execs[c], s.main, len(s.ops), clk, deadline+int64(guard)) < len(s.ops)-s.main {
			return m, fmt.Errorf("client %d passed the guard in its probe tail", c)
		}
	}
	return m, nil
}

// prefixWall is the wall time of the first k ops of every client.
func (m measured) prefixWall(k int) float64 {
	n := make([]int, len(m.tls))
	for c := range n {
		n[c] = k
	}
	return wallOver(m.tls, n)
}

// runEndToEnd measures one workload with tracing off: passes times it builds
// the engine and replays a seeded stream on it; every metric is the median
// over the passes.
func runEndToEnd(w spec, o runOpts) (*record, error) {
	w, sz, opsPerClient, _ := w.sized(o.scale, o.seconds)
	r := &e2eRun{w: w, sz: sz, o: o, rec: newRecord(w, sz, o, opsPerClient), tmp: filepath.Join(o.outDir, "tmp"),
		clk: clock{base: time.Now()}, vals: map[string][]float64{},
		soaOps: int(w.soaFrac * float64(opsPerClient))}
	r.keys = casper.UniformKeys(w.rows, w.domainMax(), keySeed)
	r.orc = newOracle(r.keys)
	for p := 0; p < passes; p++ {
		streams, m, err := r.pass(p, opsPerClient)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		// The reproduction's claim: the same first ops on the state-of-the-art
		// layout (sorted column + delta store), same options otherwise, right
		// after the Casper pass they are compared with so that a slow stretch
		// of the host falls on both sides.
		if p < soaPasses {
			if err := r.soaPass(streams, m); err != nil {
				return nil, fmt.Errorf("state-of-art pass %d: %w", p, err)
			}
		}
	}
	rec, vals := r.rec, r.vals
	for _, d := range endToEndMetrics {
		if d.Name != "casper_vs_soa_x" {
			rec.set(d.Name, median(vals[d.Name]), d.Unit)
		}
	}
	rec.set("casper_vs_soa_x", median(vals["soa_prefix_s"])/median(vals["prefix_s"]), "ratio")
	rec.PassValues = vals
	rec.extra("measured_s", sum(vals["measured_s"]), "s")
	rec.extra("gen_s", sum(vals["gen_s"]), "s")
	rec.extra("pass_s", median(vals["measured_s"]), "s")
	rec.extra("ops_per_s_pass_spread", spreadOf(vals["ops_per_s"]), "ratio")
	rec.extra("train_s", median(vals["train_s"]), "s")
	rec.extra("soa_setup_s", median(vals["soa_setup_s"]), "s")
	rec.extra("soa_prefix_ops", float64(r.soaOps), "count")
	if w.durable {
		rec.extra("checkpoint_s", median(vals["checkpoint_s"]), "s")
	}
	for name, v := range vals {
		if strings.HasPrefix(name, "extra.") && len(v) == passes {
			rec.extra(strings.TrimPrefix(name, "extra."), median(v), "us")
		}
	}
	return rec, rec.finish(endToEndMetrics)
}

// e2eRun is the state the passes of one end-to-end run share.
type e2eRun struct {
	w      spec
	sz     sizing
	o      runOpts
	rec    *record
	tmp    string
	clk    clock
	keys   []int64
	orc    *oracle
	vals   map[string][]float64 // metric → one value per pass
	soaOps int                  // prefix the state-of-the-art engine replays
}

func (r *e2eRun) add(name string, v float64) { r.vals[name] = append(r.vals[name], v) }

// pass builds a fresh engine, replays pass p's streams on it, checks every
// result against the oracle and records the pass's value of every metric. It
// returns the streams and what it measured on them.
func (r *e2eRun) pass(p, opsPerClient int) ([]stream, measured, error) {
	w, rec := r.w, r.rec
	t0 := time.Now()
	streams, err := genStreams(w, r.sz, r.keys, r.o.seed, p, opsPerClient)
	if err != nil {
		return nil, measured{}, err
	}
	r.add("gen_s", time.Since(t0).Seconds())
	es, st, err := build(w, r.sz, casper.ModeCasper, w.dirRoot(r.tmp), w.durable)
	if err != nil {
		return nil, measured{}, err
	}
	defer es.close()
	var ckpt func() error
	if w.durable {
		ckpt = es.eng.Checkpoint
	}
	m, err := measure(casperExecs(es.eng, streams), streams, r.clk, guard(r.o.seconds)/passes, ckpt)
	if err != nil {
		return nil, m, err
	}

	total := 0
	for c, t := range m.tls {
		total += streams[c].main
		rec.Attempted += len(t.res)
		rec.Failed += r.orc.replay(streams[c].ops, t.res, w.clients == 1)
		for _, x := range t.res {
			rec.Checksum = rec.Checksum*1099511628211 + uint64(x)
		}
	}
	rec.Attempted++
	rec.Failed += r.orc.stateDiffs(es.eng)
	if w.durable && p == passes-1 {
		if err := durableEpilogue(w, r.sz, &es, r.orc, rec, r.tmp); err != nil {
			return nil, m, err
		}
	}
	r.orc.reset()

	r.add("setup_s", st.setupS)
	r.add("heap_bytes_per_row", st.heapPerRow)
	r.add("ops_per_s", float64(total)/m.wallS)
	r.add("alloc_bytes_per_op", m.allocPerOp)
	r.add("prefix_s", m.prefixWall(r.soaOps))
	r.add("measured_s", m.wallS)
	r.add("train_s", st.trainS)
	r.add("checkpoint_s", m.checkpointS)
	for cl, lat := range classLatencies(m.tls, streams) {
		name := classNames[cl]
		rec.OpCounts[name] = len(lat)
		r.add(name+"_p50_us", quantile(lat, 0.50)/1e3)
		r.add(name+"_p99_us", quantile(lat, 0.99)/1e3)
		if label, q := highestPercentile(len(lat)); label != "" {
			r.add("extra."+name+"_"+label+"_us", quantile(lat, q)/1e3)
		}
	}
	return streams, m, nil
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// soaPass replays the first soaOps ops of every client of a pass on a
// ModeStateOfArt engine built with the same options and records its wall
// time. With one client the two engines must agree on every result.
func (r *e2eRun) soaPass(streams []stream, casperRun measured) error {
	w, k := r.w, r.soaOps
	soa, st, err := build(w, r.sz, casper.ModeStateOfArt, w.dirRoot(r.tmp), false)
	if err != nil {
		return err
	}
	defer soa.close()
	prefix := make([]stream, len(streams))
	for c, s := range streams {
		prefix[c] = stream{ops: s.ops[:k], main: k}
	}
	sm, err := measure(casperExecs(soa.eng, prefix), prefix, r.clk, guard(r.o.seconds), nil)
	if err != nil {
		return err
	}
	r.add("soa_prefix_s", sm.wallS)
	r.add("soa_setup_s", st.setupS)
	if w.clients == 1 {
		r.rec.Attempted += k
		for i, x := range sm.tls[0].res {
			if x != casperRun.tls[0].res[i] {
				r.rec.Failed++
			}
		}
	}
	return nil
}

// durableEpilogue checks what durability promises: after a WAL sync the
// follower converges on the leader's state, and a copy of the directory taken
// without Close recovers to exactly the oracle's state.
func durableEpilogue(w spec, sz sizing, es *engineSet, orc *oracle, rec *record, tmp string) error {
	if err := es.eng.SyncWAL(); err != nil {
		return fmt.Errorf("sync wal: %w", err)
	}
	t0 := time.Now()
	caught := es.fol.WaitCaughtUp(2 * time.Minute)
	rec.extra("follower_catchup_s", time.Since(t0).Seconds(), "s")
	rec.Attempted += 2
	if !caught || es.fol.Err() != nil {
		rec.Failed++
	}
	rec.Failed += min(1, orc.stateDiffs(es.fol))

	rc, err := recoverCopy(w, sz, es.dir, tmp)
	if err != nil {
		return err
	}
	defer rc.close()
	rec.extra("recovery_s", rc.seconds, "s")
	rec.extra("dir_bytes", float64(rc.bytes), "B")
	rec.extra("recovery_replayed_records", float64(rc.replayed), "count")
	rec.Attempted += 2
	if rc.mismatches != 0 {
		rec.Failed++
	}
	rec.Failed += min(1, orc.stateDiffs(rc.eng))
	return nil
}

// recovered is a crash copy of a durable engine's directory, reopened.
type recovered struct {
	eng        *casper.Engine
	dir        string
	seconds    float64 // casper.Open on the copy
	bytes      int64   // size of the copy
	replayed   int     // WAL records replayed
	mismatches int     // replay mismatches; -1 when Open journalled no readable summary
}

func (rc *recovered) close() {
	rc.eng.Close()
	os.RemoveAll(rc.dir)
}

// recoverCopy copies dir while its engine is still open — a crash, as far as
// the files can tell — and times casper.Open on the copy.
func recoverCopy(w spec, sz sizing, dir, tmp string) (rc recovered, err error) {
	if rc.dir, err = os.MkdirTemp(tmp, w.name+"-crash-*"); err != nil {
		return rc, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(rc.dir)
		}
	}()
	if rc.bytes, err = copyDir(dir, rc.dir); err != nil {
		return rc, err
	}
	t0 := time.Now()
	if rc.eng, err = casper.Open(nil, w.options(sz, casper.ModeCasper, rc.dir)); err != nil {
		return rc, fmt.Errorf("recovery: %w", err)
	}
	rc.seconds = time.Since(t0).Seconds()
	rc.replayed, rc.mismatches = recoveryEvent(rc.eng)
	return rc, nil
}

// recoveryEvent reads the replay summary Open journals during recovery:
// records replayed and replay mismatches (-1 when the summary is missing or
// unreadable, which the caller treats as a failure).
func recoveryEvent(e *casper.Engine) (replayed, mismatches int) {
	for _, ev := range e.Events(0) {
		if ev.Kind != "recovery.replay" {
			continue
		}
		var nShards, traces int
		if _, err := fmt.Sscanf(ev.Note, "%d shards, %d move traces reconciled, %d replay mismatches", &nShards, &traces, &mismatches); err != nil {
			return ev.Rows, -1
		}
		return ev.Rows, mismatches
	}
	return 0, -1
}

// copyDir copies the regular files under src into dst and returns the bytes
// copied.
func copyDir(src, dst string) (int64, error) {
	var total int64
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		n, err := io.Copy(out, in)
		total += n
		if err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	return total, err
}
