package main

import (
	"math"
	"slices"
	"sort"

	"casper"
	"casper/internal/workload"
)

// oracle is the bench-local model of the relation: a key multiset. It is
// replayed outside the clock against the results the engine returned. It
// remembers the initial count of every key it changes, so reset can return it
// to the loaded state for the next pass without rebuilding the map.
type oracle struct {
	m       map[int64]int32
	initial map[int64]int32 // keys changed since load → their count at load
	rows    int
	sorted  []int64 // the loaded keys, ascending
	prefix  []int64 // prefix[i] = sum of sorted[:i]
}

func newOracle(keys []int64) *oracle {
	o := &oracle{m: make(map[int64]int32, len(keys)), initial: map[int64]int32{}, rows: len(keys)}
	o.sorted = append(o.sorted, keys...)
	slices.Sort(o.sorted)
	o.prefix = make([]int64, len(keys)+1)
	for i, k := range o.sorted {
		o.m[k]++
		o.prefix[i+1] = o.prefix[i] + k
	}
	return o
}

func (o *oracle) touch(k int64) {
	if _, ok := o.initial[k]; !ok {
		o.initial[k] = o.m[k]
	}
}

func (o *oracle) reset() {
	for k, n := range o.initial {
		if n == 0 {
			delete(o.m, k)
		} else {
			o.m[k] = n
		}
	}
	clear(o.initial)
	o.rows = len(o.sorted)
}

func (o *oracle) add(k int64) { o.touch(k); o.m[k]++; o.rows++ }

func (o *oracle) remove(k int64) bool {
	n := o.m[k]
	if n == 0 {
		return false
	}
	o.touch(k)
	if n == 1 {
		delete(o.m, k)
	} else {
		o.m[k] = n - 1
	}
	o.rows--
	return true
}

// rangeStats computes the row count and key sum of [lo, hi] independently of
// the engine: the loaded keys in the range, corrected by every key changed
// since load.
func (o *oracle) rangeStats(lo, hi int64) (count, sum int64) {
	a := sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] >= lo })
	b := sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] > hi })
	count, sum = int64(b-a), o.prefix[b]-o.prefix[a]
	for k, was := range o.initial {
		if k >= lo && k <= hi {
			d := int64(o.m[k] - was)
			count += d
			sum += d * k
		}
	}
	return count, sum
}

// looseOK is the check that holds even when results raced against another
// client: writes report success, reads are non-negative, scans respect LIMIT.
func looseOK(op workload.Op, got int64) bool {
	switch op.Kind {
	case workload.Q4Insert, workload.Q5Delete, workload.Q6Update:
		return got == 1
	case workload.Q8Scan:
		return got >= 0 && (op.Limit == 0 || got <= int64(op.Limit))
	}
	return got >= 0
}

// replay applies ops[:len(res)] to the model in order and returns how many
// results disagree with it. A write that reports failure is a failed op even
// if the model agrees: workloads are built so that none should. With exact
// unset (results raced against another client) only looseOK is required of
// reads.
func (o *oracle) replay(ops []workload.Op, res []int64, exact bool) (failed int) {
	ranges := 0
	for i, got := range res {
		op := ops[i]
		ok := looseOK(op, got)
		switch op.Kind {
		case workload.Q1PointQuery:
			ok = ok && (!exact || got == int64(o.m[op.Key]))
		case workload.Q2RangeCount, workload.Q3RangeSum, workload.Q8Scan:
			ranges++
			switch {
			case !exact:
			case ranges%oracleEvery == 0:
				count, sum := o.rangeStats(op.Key, op.Key2)
				want := count
				if op.Kind == workload.Q3RangeSum {
					want = sum
				} else if op.Kind == workload.Q8Scan && op.Limit > 0 && count > int64(op.Limit) {
					want = int64(op.Limit)
				}
				ok = got == want
			}
		case workload.Q4Insert:
			o.add(op.Key)
		case workload.Q5Delete:
			ok = o.remove(op.Key) && ok
		case workload.Q6Update:
			if ok = o.remove(op.Key) && ok; ok {
				o.add(op.Key2)
			}
		}
		if !ok {
			failed++
		}
	}
	return failed
}

// scanner is the read surface shared by Engine and Follower.
type scanner interface {
	Len() int
	Scan(lo, hi int64, opts casper.ScanOptions) *casper.Cursor
}

// stateDiffs compares the engine's full contents with the model: the row
// count plus the multiset of a full-range scan. It returns the number of
// disagreements (0 = identical).
func (o *oracle) stateDiffs(e scanner) (diffs int) {
	if e.Len() != o.rows {
		diffs++
	}
	c := e.Scan(math.MinInt64, math.MaxInt64, casper.ScanOptions{})
	defer c.Close()
	distinct := 0
	flush := func(k int64, n int32) {
		distinct++
		if o.m[k] != n {
			diffs++
		}
	}
	var cur int64
	var run int32
	for c.Next() {
		if k := c.Key(); run > 0 && k == cur {
			run++
		} else {
			if run > 0 {
				flush(cur, run)
			}
			cur, run = k, 1
		}
	}
	if run > 0 {
		flush(cur, run)
	}
	if c.Err() != nil || distinct != len(o.m) {
		diffs++
	}
	return diffs
}
