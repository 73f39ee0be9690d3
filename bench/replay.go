package main

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"casper"
	"casper/internal/workload"
)

// clock reads monotonic nanoseconds since the run's base instant.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// segment is one uninterrupted stretch of a client's closed loop: ops
// [lo, hi) ran back to back starting at start.
type segment struct {
	lo, hi int
	start  int64
}

// timeline holds one client's preallocated per-op buffers. The loop reads the
// clock once per op boundary (the end of op i is the start of op i+1), so
// timing costs one clock read per op; everything else is derived afterwards.
type timeline struct {
	end  []int64 // end[i] = clock when op i returned
	res  []int64 // res[i] = op i's Execute result
	segs []segment
}

func newTimeline(n int) *timeline {
	return &timeline{end: make([]int64, n), res: make([]int64, n), segs: make([]segment, 0, 8)}
}

// run executes ops [lo, hi) in a closed loop and returns how many completed;
// it stops early only when the clock passes deadline, which the caller
// treats as a failed run.
func (t *timeline) run(exec func(i int) int64, lo, hi int, clk clock, deadline int64) int {
	now := clk.now()
	if now > deadline {
		hi = lo
	}
	t.segs = append(t.segs, segment{lo: lo, hi: hi, start: now})
	s := &t.segs[len(t.segs)-1]
	for i := lo; i < hi; i++ {
		t.res[i] = exec(i)
		now = clk.now()
		t.end[i] = now
		if now > deadline {
			s.hi = i + 1
			break
		}
	}
	return s.hi - lo
}

// done returns the number of ops executed (segments are contiguous from 0).
func (t *timeline) done() int {
	if len(t.segs) == 0 {
		return 0
	}
	return t.segs[len(t.segs)-1].hi
}

// latencies returns each executed op's latency in ns.
func (t *timeline) latencies() []int64 {
	lat := make([]int64, t.done())
	for _, s := range t.segs {
		prev := s.start
		for i := s.lo; i < s.hi; i++ {
			lat[i] = t.end[i] - prev
			prev = t.end[i]
		}
	}
	return lat
}

// span returns the wall-clock interval covering ops [lo, hi) of the timeline.
func (t *timeline) span(lo, hi int) (start, end int64) {
	for _, s := range t.segs {
		if lo >= s.lo && lo < s.hi {
			start = s.start
			if lo > s.lo {
				start = t.end[lo-1]
			}
		}
	}
	return start, t.end[hi-1]
}

// runClients runs every client's ops [lo, hi) concurrently, one goroutine per
// client, released together; it returns when all have finished.
func runClients(execs []func(i int) int64, tls []*timeline, lo, hi []int, clk clock, deadline int64) {
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for c := range execs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-gate
			tls[c].run(execs[c], lo[c], hi[c], clk, deadline)
		}(c)
	}
	close(gate)
	wg.Wait()
}

// wallOver returns first-op-start to last-op-end across clients for ops
// [0, n[c]) of each client.
func wallOver(tls []*timeline, n []int) float64 {
	first, last := int64(math.MaxInt64), int64(0)
	for c, t := range tls {
		if n[c] == 0 {
			continue
		}
		s, e := t.span(0, n[c])
		if s < first {
			first = s
		}
		if e > last {
			last = e
		}
	}
	return secs(last - first)
}

var casperKinds = map[workload.Kind]casper.OpKind{
	workload.Q1PointQuery: casper.PointQuery, workload.Q2RangeCount: casper.RangeCount,
	workload.Q3RangeSum: casper.RangeSum, workload.Q4Insert: casper.Insert,
	workload.Q5Delete: casper.Delete, workload.Q6Update: casper.Update, workload.Q8Scan: casper.Scan,
}

func toCasperOps(ops []workload.Op) []casper.Op {
	out := make([]casper.Op, len(ops))
	for i, op := range ops {
		out[i] = casper.Op{Kind: casperKinds[op.Kind], Key: op.Key, Key2: op.Key2, Limit: op.Limit}
	}
	return out
}

// casperExecs returns one closure per client replaying its stream through the
// public facade. Conversion to casper.Op happens here, before any clock.
func casperExecs(eng *casper.Engine, streams []stream) []func(i int) int64 {
	execs := make([]func(i int) int64, len(streams))
	for c, s := range streams {
		ops := toCasperOps(s.ops)
		execs[c] = func(i int) int64 { return eng.Execute(ops[i]) }
	}
	return execs
}

// classLatencies splits latencies by op class and sorts each.
func classLatencies(tls []*timeline, streams []stream) [numClasses][]int64 {
	var out [numClasses][]int64
	for c, t := range tls {
		for i, l := range t.latencies() {
			cl := classOf(streams[c].ops[i].Kind)
			out[cl] = append(out[cl], l)
		}
	}
	for cl := range out {
		slices.Sort(out[cl])
	}
	return out
}

// quantile reads the q-quantile of sorted values (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// highestPercentile returns the highest of p99.9/p99.99/p99.999 that still has
// at least ten samples beyond it, or "" when even p99.9 does not.
func highestPercentile(n int) (label string, q float64) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.999", 0.99999}, {"p99.99", 0.9999}, {"p99.9", 0.999}} {
		if float64(n)*(1-c.q) >= 10 {
			return c.label, c.q
		}
	}
	return "", 0
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// memStats collects garbage first when settle is set, so HeapInuse reflects
// live data only. It takes two cycles: what a sync.Pool holds (the engine
// pools scan buffers as large as a shard) survives the first.
func memStats(settle bool) runtime.MemStats {
	if settle {
		runtime.GC()
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
