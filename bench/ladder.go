package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"casper"
	"casper/internal/column"
	"casper/internal/costmodel"
	"casper/internal/iomodel"
	"casper/internal/shard"
	"casper/internal/table"
	"casper/internal/workload"
)

// The cost ladder: one op prefix of the workload's seeded stream, replayed by
// a single client against each layer's public functions from the bottom up.
// Every rung runs the same closed loop as the end-to-end measurement; a
// layer's self time per op class is its rung's mean minus the rung below's.
//
//	column → table → shard (1 shard) → shard (4 shards) → casper facade
//	  → +wal → +replica   (durable-ingest only)
//	  → +obs              (EnableMetrics on whatever the run's top rung is)

// rung is one replay of the prefix.
type rung struct {
	name  string
	tl    *timeline
	busy  [numClasses]int64 // summed op latency, ns
	count [numClasses]int
	wallS float64
	ckptS float64 // the mid-prefix checkpoint, on durable rungs
}

func (r *rung) meanNs(cl opClass) float64 {
	if r.count[cl] == 0 {
		return 0
	}
	return float64(r.busy[cl]) / float64(r.count[cl])
}

type ladder struct {
	w      spec
	sz     sizing
	o      runOpts
	rec    *record
	tmp    string
	clk    clock
	keys   []int64
	ops    []workload.Op // the prefix, clients interleaved
	cops   []casper.Op
	sample []workload.Op
	rungs  map[string]*rung
	order  []string // bottom rung first
}

// run measures one client replaying the first n ops of the prefix.
func (l *ladder) run(n int, exec func(i int) int64, ckpt func() error) (measured, error) {
	s := []stream{{ops: l.ops[:n], main: n}}
	return measure([]func(int) int64{exec}, s, l.clk, guard(l.o.seconds), ckpt)
}

// replay runs the prefix through exec as one rung.
func (l *ladder) replay(name string, exec func(i int) int64, ckpt func() error) (*rung, error) {
	m, err := l.run(len(l.ops), exec, ckpt)
	if err != nil {
		return nil, fmt.Errorf("rung %s: %w", name, err)
	}
	r := &rung{name: name, tl: m.tls[0], wallS: m.wallS, ckptS: m.checkpointS}
	for i, d := range r.tl.latencies() {
		cl := classOf(l.ops[i].Kind)
		r.busy[cl] += d
		r.count[cl]++
	}
	l.rungs[name] = r
	l.order = append(l.order, name)
	return r, nil
}

// self is the per-class difference between two rungs' mean op times.
func (l *ladder) self(upper, lower string, cl opClass) float64 {
	u, lo := l.rungs[upper], l.rungs[lower]
	if u == nil || lo == nil {
		return 0
	}
	return u.meanNs(cl) - lo.meanNs(cl)
}

func tableConfig(sz sizing) table.Config {
	return table.Config{
		Mode: table.Casper, PayloadCols: payloadCols, ChunkValues: sz.chunkValues,
		GhostFrac: ghostFrac, Partitions: partitions, Params: iomodel.EngineDefaults(sz.blockBytes),
	}
}

// runLadder is the traced run: it reports every per-layer metric and writes
// the span file.
func runLadder(w spec, o runOpts) (*record, error) {
	w, sz, opsPerClient, traceOps := w.sized(o.scale, o.seconds)
	l := &ladder{w: w, sz: sz, o: o, rec: newRecord(w, sz, o, traceOps), tmp: filepath.Join(o.outDir, "tmp"),
		clk: clock{base: time.Now()}, rungs: map[string]*rung{}}
	rec := l.rec
	for _, d := range perLayerMetrics {
		rec.set(d.Name, 0, d.Unit) // layers a workload does not use report 0
	}
	l.keys = casper.UniformKeys(w.rows, w.domainMax(), keySeed)
	t0 := time.Now()
	streams, err := genStreams(w, sz, l.keys, o.seed, 0, opsPerClient)
	if err != nil {
		return nil, err
	}
	rec.set("workload.gen_s", time.Since(t0).Seconds(), "s")
	for i := 0; i < traceOps; i++ {
		for _, s := range streams {
			l.ops = append(l.ops, s.ops[i])
		}
	}
	l.cops = toCasperOps(l.ops)
	sp, err := workload.Preset(w.preset, sz.trainOps, trainSeed)
	if err != nil {
		return nil, err
	}
	if l.sample, err = workload.Generate(l.keys, w.domainMax(), sp); err != nil {
		return nil, err
	}

	if err := l.columnAndTable(); err != nil {
		return nil, err
	}
	if err := l.shardRungs(); err != nil {
		return nil, err
	}
	if err := l.facadeRungs(); err != nil {
		return nil, err
	}
	if err := l.baselinePass(opsPerClient); err != nil {
		return nil, err
	}
	if w.clients > 1 {
		if err := l.scalingPasses(streams, traceOps); err != nil {
			return nil, err
		}
	}

	for cl, name := range classNames {
		cl := opClass(cl)
		rec.set("column."+name+"_ns", l.rungs["column"].meanNs(cl), "ns")
		rec.set("table."+name+"_self_ns", l.self("table", "column", cl), "ns")
		rec.set("shard."+name+"_self_ns", l.self("shard1", "table", cl), "ns")
		rec.set("shard.route_"+name+"_self_ns", l.self("shard4", "shard1", cl), "ns")
		rec.set("casper."+name+"_self_ns", l.self("casper", "shard4", cl), "ns")
		rec.set("obs."+name+"_self_ns", l.self("obs", l.order[len(l.order)-2], cl), "ns")
		rec.OpCounts[name] = l.rungs["casper"].count[cl]
	}
	if w.durable {
		rec.set("wal.write_self_ns", l.self("wal", "casper", classWrite), "ns")
		rec.set("replica.leader_write_self_ns", l.self("replica", "wal", classWrite), "ns")
	}

	// Every rung answered the same ops, so every rung's results must agree
	// with the facade's, which the oracle checks in turn.
	ref := l.rungs["casper"].tl.res
	for _, name := range l.order {
		rec.Attempted += len(ref)
		for i, r := range l.rungs[name].tl.res[:len(ref)] {
			if r != ref[i] {
				rec.Failed++
			}
		}
	}
	rec.Failed += newOracle(l.keys).replay(l.ops, ref, true)
	for _, r := range ref {
		rec.Checksum = rec.Checksum*1099511628211 + uint64(r)
	}
	if err := l.writeSpans(); err != nil {
		return nil, err
	}
	return rec, rec.finish(perLayerMetrics)
}

// ---------------------------------------------------------------------------
// column and table rungs
// ---------------------------------------------------------------------------

// columnSet is the column rung: one key-only partitioned column per chunk of
// the trained table, with chunk routing done here by binary search.
type columnSet struct {
	cols  []*column.Column
	lower []int64
	buf   []int
}

func newColumnSet(tb *table.Table, bv int) (*columnSet, error) {
	keys, specs, sums := tb.Keys(), tb.ChunkLayouts(), tb.Layouts()
	cs := &columnSet{}
	off := 0
	for i, sum := range sums {
		n := 0
		for _, s := range sum.Sizes {
			n += s
		}
		if !specs[i].Trained {
			return nil, fmt.Errorf("chunk %d has no trained layout", i)
		}
		col, err := column.NewFromSorted(keys[off:off+n], column.Config{
			Layout: costmodel.Layout{Sizes: specs[i].Blocks}, BlockValues: bv, Ghosts: specs[i].Ghosts,
		})
		if err != nil {
			return nil, fmt.Errorf("chunk %d: %w", i, err)
		}
		cs.cols = append(cs.cols, col)
		cs.lower = append(cs.lower, keys[off])
		off += n
	}
	return cs, nil
}

func (cs *columnSet) chunk(v int64) int {
	i := sort.Search(len(cs.lower), func(i int) bool { return cs.lower[i] > v })
	if i > 0 {
		i--
	}
	return i
}

func (cs *columnSet) exec(op workload.Op) int64 {
	switch op.Kind {
	case workload.Q1PointQuery:
		return int64(cs.cols[cs.chunk(op.Key)].PointQuery(op.Key))
	case workload.Q2RangeCount, workload.Q3RangeSum, workload.Q8Scan:
		var out int64
		for i, b := cs.chunk(op.Key), cs.chunk(op.Key2); i <= b; i++ {
			switch op.Kind {
			case workload.Q2RangeCount:
				out += int64(cs.cols[i].RangeCount(op.Key, op.Key2))
			case workload.Q3RangeSum:
				out += cs.cols[i].RangeSum(op.Key, op.Key2)
			default: // a column has no cursor: a scan selects every qualifying position
				cs.buf = cs.cols[i].RangePositions(op.Key, op.Key2, cs.buf[:0])
				out += int64(len(cs.buf))
			}
		}
		if op.Kind == workload.Q8Scan && op.Limit > 0 && out > int64(op.Limit) {
			out = int64(op.Limit)
		}
		return out
	case workload.Q4Insert:
		cs.cols[cs.chunk(op.Key)].Insert(op.Key)
		return 1
	case workload.Q5Delete:
		if cs.cols[cs.chunk(op.Key)].Delete(op.Key) != nil {
			return 0
		}
		return 1
	case workload.Q6Update:
		i, j := cs.chunk(op.Key), cs.chunk(op.Key2)
		if i == j {
			if _, err := cs.cols[i].Update(op.Key, op.Key2); err != nil {
				return 0
			}
			return 1
		}
		if cs.cols[i].Delete(op.Key) != nil {
			return 0
		}
		cs.cols[j].Insert(op.Key2)
		return 1
	}
	return 0
}

func (cs *columnSet) stats() column.Stats {
	var t column.Stats
	for _, c := range cs.cols {
		s := c.Stats()
		t.Inserts += s.Inserts
		t.Deletes += s.Deletes
		t.Updates += s.Updates
		t.RippleSteps += s.RippleSteps
		t.GhostHits += s.GhostHits
		t.ValuesScanned += s.ValuesScanned
		t.Growths += s.Growths
		t.ZonemapSkips += s.ZonemapSkips
	}
	return t
}

// count replays ops on an untimed twin of the column rung, attributing each
// op's column.Stats delta to its class, and sets the column.* count metrics.
func (cs *columnSet) count(ops []workload.Op, rec *record) {
	var scanned [numClasses]int64
	var points, rangeRows, edges int64
	for _, op := range ops {
		cl := classOf(op.Kind)
		before := cs.stats().ValuesScanned
		cs.exec(op)
		scanned[cl] += cs.stats().ValuesScanned - before
		switch cl {
		case classPoint:
			points++
		case classRange:
			for i, b := cs.chunk(op.Key), cs.chunk(op.Key2); i <= b; i++ {
				rangeRows += int64(cs.cols[i].RangeCount(op.Key, op.Key2))
				if cs.cols[i].FindPartition(op.Key) == cs.cols[i].FindPartition(op.Key2) {
					edges++
				} else {
					edges += 2
				}
			}
		}
	}
	s := cs.stats()
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rec.set("column.values_scanned_per_point", ratio(scanned[classPoint], points), "count")
	rec.set("column.scanned_per_range_row", ratio(scanned[classRange], rangeRows), "count")
	rec.set("column.zonemap_skip_ratio", ratio(s.ZonemapSkips, edges), "ratio")
	rec.set("column.ripple_steps_per_write", ratio(s.RippleSteps, s.Inserts+s.Deletes+s.Updates), "count")
	rec.set("column.ghost_hit_ratio", ratio(s.GhostHits, s.Inserts), "ratio")
	rec.set("column.growths", float64(s.Growths), "count")
}

// tableExec is table.Execute plus the scan the table's Execute does not take:
// a LIMIT-bounded drain of ScanRange, the iterator the shard cursor sits on.
func tableExec(tb *table.Table, buf *table.RowBuf, op workload.Op) int64 {
	if op.Kind != workload.Q8Scan {
		return tb.Execute(op)
	}
	it := tb.ScanRange(op.Key, op.Key2)
	defer it.Close()
	var n int64
	for it.NextBatch(buf, table.DefaultScanBatch) {
		n += int64(buf.Len())
		if op.Limit > 0 && n >= int64(op.Limit) {
			return int64(op.Limit)
		}
	}
	return n
}

func (l *ladder) columnAndTable() error {
	tb, err := table.New(l.keys, tableConfig(l.sz), nil)
	if err != nil {
		return err
	}
	if err := tb.TrainLayout(l.sample, runtime.NumCPU()); err != nil {
		return err
	}
	// Two column rungs from the same trained table: one timed, and an untimed
	// twin that reads column.Stats around every op.
	bv := iomodel.EngineDefaults(l.sz.blockBytes).BlockValues()
	cs, err := newColumnSet(tb, bv)
	if err != nil {
		return fmt.Errorf("column rung: %w", err)
	}
	if _, err := l.replay("column", func(i int) int64 { return cs.exec(l.ops[i]) }, nil); err != nil {
		return err
	}
	twin, err := newColumnSet(tb, bv)
	if err != nil {
		return fmt.Errorf("column rung twin: %w", err)
	}
	twin.count(l.ops, l.rec)
	buf := new(table.RowBuf)
	_, err = l.replay("table", func(i int) int64 { return tableExec(tb, buf, l.ops[i]) }, nil)
	return err
}

// ---------------------------------------------------------------------------
// shard rungs
// ---------------------------------------------------------------------------

func (l *ladder) shardRungs() error {
	var fleet *shard.Engine
	for _, n := range []int{1, shards} {
		eng, err := shard.New(l.keys, shard.Config{Shards: n, ByRange: true, Table: tableConfig(l.sz)})
		if err != nil {
			return err
		}
		if err := eng.Train(l.sample, runtime.NumCPU()); err != nil {
			return err
		}
		if _, err := l.replay(fmt.Sprintf("shard%d", n), func(i int) int64 { return eng.Execute(l.ops[i]) }, nil); err != nil {
			return err
		}
		fleet = eng
	}
	// Side passes on the 4-shard engine, after its replay. Reads only.
	part := fleet.Partitioner()
	var updates, cross int
	var ranges []workload.Op
	for _, op := range l.ops {
		switch {
		case op.Kind == workload.Q6Update:
			updates++
			if part.Shard(op.Key) != part.Shard(op.Key2) {
				cross++
			}
		case classOf(op.Kind) == classRange && len(ranges) < 200:
			ranges = append(ranges, op)
		}
	}
	if updates > 0 {
		l.rec.set("shard.cross_shard_update_frac", float64(cross)/float64(updates), "ratio")
	}
	if len(ranges) > 0 {
		before := memStats(true)
		for _, op := range ranges {
			fleet.Execute(op)
		}
		after := memStats(false)
		l.rec.set("shard.alloc_bytes_per_range", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(ranges)), "B/op")
		l.rec.set("shard.allocs_per_range", float64(after.Mallocs-before.Mallocs)/float64(len(ranges)), "count")
	}
	return fleet.Close()
}

// ---------------------------------------------------------------------------
// facade, wal, replica and obs rungs
// ---------------------------------------------------------------------------

func (l *ladder) facadeExec(eng *casper.Engine) func(i int) int64 {
	return func(i int) int64 { return eng.Execute(l.cops[i]) }
}

// facadeRungs replays the prefix through the public facade twice — once
// exactly as -trace 0 measures (nothing kept but the timeline), once as a
// ladder rung — then adds the rungs above it. Spans are derived after the
// loop from the clock reads both replays take, so their rates should agree.
func (l *ladder) facadeRungs() error {
	plain, _, err := build(l.w, l.sz, casper.ModeCasper, "", false)
	if err != nil {
		return err
	}
	pm, err := l.run(len(l.ops), l.facadeExec(plain.eng), nil)
	plain.close()
	if err != nil {
		return err
	}
	if err := l.facadeRung(pm.wallS); err != nil {
		return err
	}
	if l.w.durable {
		if err := l.durableRung("wal", false, false); err != nil {
			return err
		}
		if err := l.durableRung("replica", true, false); err != nil {
			return err
		}
		return l.durableRung("obs", true, true)
	}
	es, _, err := build(l.w, l.sz, casper.ModeCasper, "", false)
	if err != nil {
		return err
	}
	defer es.close()
	es.eng.EnableMetrics()
	if _, err := l.replay("obs", l.facadeExec(es.eng), nil); err != nil {
		return err
	}
	l.obsCounts(es.eng.Metrics())
	return nil
}

// facadeRung is the casper rung, with the numbers read off its engine before
// (trained layout, solver time) and after (transaction commit cost) the
// replay. plainWallS is the untraced replay's wall time.
func (l *ladder) facadeRung(plainWallS float64) error {
	rec := l.rec
	es, st, err := build(l.w, l.sz, casper.ModeCasper, "", false)
	if err != nil {
		return err
	}
	defer es.close()
	layouts := es.eng.Layouts()
	var parts, live, ghosts int
	for _, lay := range layouts {
		parts += lay.Partitions
		for j := range lay.Sizes {
			live += lay.Sizes[j]
			ghosts += lay.Ghosts[j]
		}
	}
	rec.set("table.chunks", float64(len(layouts)), "count")
	rec.set("table.partitions_per_chunk_mean", float64(parts)/float64(len(layouts)), "count")
	rec.set("table.ghost_slots_frac", float64(ghosts)/float64(live+ghosts), "ratio")
	rec.set("solver.train_s", st.trainS, "s")
	rec.set("solver.train_s_per_chunk", st.trainS/float64(len(layouts)), "s")
	r, err := l.replay("casper", l.facadeExec(es.eng), nil)
	if err != nil {
		return err
	}
	rec.set("casper.trace_overhead_frac", 1-plainWallS/r.wallS, "ratio")

	const txns = 2000
	t0 := time.Now()
	for i := 0; i < txns; i++ {
		tx := es.eng.Begin()
		if err := tx.Insert(l.w.domainMax() + 1 + int64(i)); err != nil {
			return err
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	rec.set("txn.commit_us", time.Since(t0).Seconds()*1e6/txns, "us")
	return nil
}

// obsCounts reads the shard-layer counters the registry keeps.
func (l *ladder) obsCounts(m casper.Snapshot) {
	rec := l.rec
	rec.set("shard.stripe_retries", float64(m.StripeRetries), "count")
	rec.set("shard.compensation_hits", float64(m.CompensationHits), "count")
	if tasks := m.FanInline + m.FanSubmits; tasks > 0 {
		rec.set("shard.fan_inline_ratio", float64(m.FanInline)/float64(tasks), "ratio")
	}
	if scans := m.Ops["scan"].Count; scans > 0 {
		rec.set("shard.cursor_batches_per_scan", float64(m.CursorBatches)/float64(scans), "count")
	}
}

// durableRung replays the prefix on a durable engine shaped like the
// end-to-end durable run: WAL with interval sync, a checkpoint at the
// midpoint, optionally a live follower and the metrics registry. The top
// (obs) rung also supplies the WAL, checkpoint and recovery numbers.
func (l *ladder) durableRung(name string, follower, metrics bool) error {
	rec := l.rec
	es, _, err := build(l.w, l.sz, casper.ModeCasper, l.tmp, follower)
	if err != nil {
		return err
	}
	defer es.close()
	if metrics {
		es.eng.EnableMetrics()
	}
	var ckptBytes int64
	var ckptRows int
	ckpt := func() error {
		if err := es.eng.Checkpoint(); err != nil {
			return err
		}
		ckptRows = es.eng.Len()
		ckptBytes, err = dirBytes(es.dir, ".ckpt")
		return err
	}

	// Follower lag, sampled beside the writer while the prefix replays.
	var lags []float64
	stop, sampled := make(chan struct{}), sync.WaitGroup{}
	if follower {
		sampled.Add(1)
		go func() {
			defer sampled.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					lags = append(lags, es.fol.Lag().Seconds()*1e3)
				}
			}
		}()
	}
	r, err := l.replay(name, l.facadeExec(es.eng), ckpt)
	close(stop)
	sampled.Wait()
	if err != nil {
		return err
	}
	if err := es.eng.SyncWAL(); err != nil {
		return err
	}
	writes := float64(r.count[classWrite])
	if follower && !metrics {
		t0 := time.Now()
		if !es.fol.WaitCaughtUp(2*time.Minute) || es.fol.Err() != nil {
			rec.Failed++
		}
		catchup := time.Since(t0).Seconds()
		rec.set("replica.catchup_s", catchup, "s")
		rec.set("replica.apply_records_per_s", float64(es.fol.Metrics().Replica.RecordsApplied)/(r.wallS+catchup), "1/s")
		if len(lags) > 0 {
			sort.Float64s(lags)
			rec.set("replica.lag_p50_ms", lags[len(lags)/2], "ms")
			rec.set("replica.lag_max_ms", lags[len(lags)-1], "ms")
		}
	}
	if !metrics {
		return nil
	}

	m := es.eng.Metrics()
	l.obsCounts(m)
	rec.set("wal.bytes_per_write", float64(m.WAL.Bytes)/writes, "B/op")
	rec.set("wal.appends_per_write", float64(m.WAL.Appends)/writes, "count")
	rec.set("wal.fsyncs", float64(m.WAL.FsyncNs.Count), "count")
	rec.set("wal.fsync_p50_us", float64(m.WAL.FsyncNs.Quantile(0.5))/1e3, "us")
	rec.set("wal.fsync_p99_us", float64(m.WAL.FsyncNs.Quantile(0.99))/1e3, "us")
	rec.set("wal.group_batch_mean", m.WAL.GroupBatch.Mean(), "count")
	rec.set("wal.segment_rolls", float64(m.WAL.SegmentRolls), "count")
	rec.set("shard.checkpoint_s", l.rungs[name].ckptS, "s")
	if ckptRows > 0 {
		rec.set("shard.checkpoint_bytes_per_row", float64(ckptBytes)/float64(ckptRows), "B/row")
	}
	total, err := dirBytes(es.dir, "")
	if err != nil {
		return err
	}
	rec.set("wal.dir_bytes_per_row", float64(total)/float64(es.eng.Len()), "B/row")

	rc, err := recoverCopy(l.w, l.sz, es.dir, l.tmp)
	if err != nil {
		return err
	}
	defer rc.close()
	rec.set("shard.recovery_s", rc.seconds, "s")
	rec.set("shard.replay_records_per_s", float64(rc.replayed)/rc.seconds, "1/s")
	rec.set("shard.replay_mismatches", float64(rc.mismatches), "count")
	rec.Attempted++
	if rc.mismatches != 0 || rc.eng.Len() != es.eng.Len() {
		rec.Failed++
	}
	return nil
}

// dirBytes sums the sizes of the files under dir whose names end in suffix.
func dirBytes(dir, suffix string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, suffix) {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// ---------------------------------------------------------------------------
// side passes
// ---------------------------------------------------------------------------

// baselinePass times the state-of-the-art engine per op class on the ops the
// end-to-end casper_vs_soa_x denominator uses (capped at the ladder prefix).
func (l *ladder) baselinePass(opsPerClient int) error {
	k := min(int(l.w.soaFrac*float64(opsPerClient))*l.w.clients, len(l.ops))
	soa, _, err := build(l.w, l.sz, casper.ModeStateOfArt, l.w.dirRoot(l.tmp), false)
	if err != nil {
		return err
	}
	defer soa.close()
	m, err := l.run(k, l.facadeExec(soa.eng), nil)
	if err != nil {
		return err
	}
	var busy [numClasses]int64
	var count [numClasses]int
	ref := l.rungs["casper"].tl.res
	for i, d := range m.tls[0].latencies() {
		cl := classOf(l.ops[i].Kind)
		busy[cl] += d
		count[cl]++
		if m.tls[0].res[i] != ref[i] {
			l.rec.Failed++
		}
	}
	l.rec.Attempted += m.tls[0].done()
	if count[classPoint] > 0 {
		l.rec.set("delta.soa_point_ns", float64(busy[classPoint])/float64(count[classPoint]), "ns")
	}
	if count[classWrite] > 0 {
		l.rec.set("delta.soa_write_ns", float64(busy[classWrite])/float64(count[classWrite]), "ns")
	}
	return nil
}

// scalingPasses measures what a second client buys: the same per-client
// prefixes run by two clients at once against the single-client facade rung,
// and a point-only pass (reads share every lock) one client then two.
func (l *ladder) scalingPasses(streams []stream, traceOps int) error {
	es, _, err := build(l.w, l.sz, casper.ModeCasper, "", false)
	if err != nil {
		return err
	}
	defer es.close()
	prefix := make([]stream, len(streams))
	for c, s := range streams {
		prefix[c] = stream{ops: s.ops[:traceOps], main: traceOps}
	}
	m, err := measure(casperExecs(es.eng, prefix), prefix, l.clk, guard(l.o.seconds), nil)
	if err != nil {
		return err
	}
	l.rec.set("shard.scale_2c_x", l.rungs["casper"].wallS/m.wallS, "ratio")

	points := make([]stream, len(streams))
	n := 50 * traceOps
	for c := range points {
		ops, err := workload.Generate(l.keys, l.w.domainMax(), workload.Spec{
			Name: "points", Ops: n, Seed: l.o.seed + 2000 + int64(c),
			Mix: []workload.MixEntry{{Kind: workload.Q1PointQuery, Frac: 1, Access: workload.SkewedRecent}},
		})
		if err != nil {
			return err
		}
		points[c] = stream{ops: ops, main: n}
	}
	one, err := measure(casperExecs(es.eng, points[:1]), points[:1], l.clk, guard(l.o.seconds), nil)
	if err != nil {
		return err
	}
	all, err := measure(casperExecs(es.eng, points), points, l.clk, guard(l.o.seconds), nil)
	if err != nil {
		return err
	}
	l.rec.set("shard.point_scale_2c_x", float64(len(points))*one.wallS/all.wallS, "ratio")
	return nil
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

// span is one traced interval. Rung spans hang off the run's root span; each
// has one child per op class (count and busy time over its ops) and under it
// a sample of single-op spans. All spans of a run share Run.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = none
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Count   int    `json:"count,omitempty"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
}

const opSpansPerClass = 16

func (l *ladder) writeSpans() error {
	run := fmt.Sprintf("%s-seed%d", l.w.name, l.o.seed)
	spans := []span{{ID: 1, Run: run, Name: "run", EndNs: l.clk.now()}}
	add := func(parent int, name string, start, end int64, count int, busy int64) int {
		spans = append(spans, span{ID: len(spans) + 1, Parent: parent, Run: run, Name: name, StartNs: start, EndNs: end, Count: count, BusyNs: busy})
		return len(spans)
	}
	for _, name := range l.order {
		r := l.rungs[name]
		start, end := r.tl.span(0, len(l.ops))
		rid := add(1, "rung:"+name, start, end, len(l.ops), 0)
		lat := r.tl.latencies()
		var first, last [numClasses]int64
		var seen [numClasses]int
		var ops [numClasses][]int
		for i := range lat {
			cl := classOf(l.ops[i].Kind)
			if seen[cl] == 0 {
				first[cl] = r.tl.end[i] - lat[i]
			}
			last[cl] = r.tl.end[i]
			if every := max(1, r.count[cl]/opSpansPerClass); seen[cl]%every == 0 {
				ops[cl] = append(ops[cl], i)
			}
			seen[cl]++
		}
		for cl, cname := range classNames {
			if r.count[cl] == 0 {
				continue
			}
			cid := add(rid, name+"/"+cname, first[cl], last[cl], r.count[cl], r.busy[cl])
			for _, i := range ops[cl] {
				add(cid, fmt.Sprintf("%s/%s/op%d", name, cname, i), r.tl.end[i]-lat[i], r.tl.end[i], 0, 0)
			}
		}
	}
	return writeJSON(filepath.Join(l.o.outDir, l.w.name+".trace.json"), map[string]any{
		"run": run, "workload": l.w.name, "seed": l.o.seed, "clock": "ns since the traced run started", "spans": spans,
	})
}
