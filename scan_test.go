package casper

import (
	"math"
	"testing"
)

// TestScanPublicAPI pins the public cursor surface: full drains agree with
// the aggregates, LIMIT caps totals, page tokens compose into a complete
// paginated drain, and bad tokens error instead of panicking.
func TestScanPublicAPI(t *testing.T) {
	keys := UniformKeys(5_000, 50_000, 3)
	opts := testOptions(ModeCasper)
	opts.Shards = 4
	e, err := Open(keys, opts)
	if err != nil {
		t.Fatal(err)
	}

	c := e.Scan(math.MinInt64, math.MaxInt64, ScanOptions{})
	var n int
	var sum int64
	last := int64(math.MinInt64)
	for c.Next() {
		if c.Key() < last {
			t.Fatalf("scan regressed: %d after %d", c.Key(), last)
		}
		last = c.Key()
		if len(c.Payload()) != 3 {
			t.Fatalf("payload width %d, want 3", len(c.Payload()))
		}
		n++
		sum += c.Key()
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if n != e.RangeCount(math.MinInt64, math.MaxInt64) {
		t.Fatalf("scan drained %d rows, RangeCount says %d", n, e.RangeCount(math.MinInt64, math.MaxInt64))
	}
	if sum != e.RangeSum(math.MinInt64, math.MaxInt64) {
		t.Fatalf("scan key sum %d, RangeSum says %d", sum, e.RangeSum(math.MinInt64, math.MaxInt64))
	}

	// LIMIT caps the drain.
	c = e.Scan(math.MinInt64, math.MaxInt64, ScanOptions{Limit: 10})
	got := 0
	for c.Next() {
		got++
	}
	c.Close()
	if got != 10 {
		t.Fatalf("LIMIT 10 scan yielded %d rows", got)
	}

	// Page-token pagination re-drains the whole relation exactly once.
	paged, tok := 0, ""
	for {
		c := e.Scan(math.MinInt64, math.MaxInt64, ScanOptions{Limit: 997, PageToken: tok})
		pn := 0
		for c.Next() {
			pn++
		}
		tok = c.PageToken()
		c.Close()
		if pn == 0 {
			break
		}
		paged += pn
	}
	if paged != n {
		t.Fatalf("paginated drain %d rows, want %d", paged, n)
	}

	c = e.Scan(0, 10, ScanOptions{PageToken: "bogus"})
	if c.Next() || c.Err() == nil {
		t.Fatal("bogus page token did not error")
	}
	c.Close()
}

// TestScanViewPinnedPages checks the stable-pagination recipe: pages read
// from one View are unaffected by inserts landing between page reads of
// the outer engine.
func TestScanViewPinnedPages(t *testing.T) {
	keys := UniformKeys(2_000, 20_000, 9)
	opts := testOptions(ModeCasper)
	opts.Shards = 2
	e, err := Open(keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.View(func(v *View) {
		c1 := v.Scan(0, 20_000, ScanOptions{})
		var first []int64
		for c1.Next() {
			first = append(first, c1.Key())
		}
		c1.Close()
		c2 := v.Scan(0, 20_000, ScanOptions{})
		i := 0
		for c2.Next() {
			if i >= len(first) || c2.Key() != first[i] {
				t.Fatalf("view drains diverged at row %d", i)
			}
			i++
		}
		c2.Close()
		if i != len(first) {
			t.Fatalf("second view drain %d rows, first %d", i, len(first))
		}
	})
}

// TestScanOpExecuteAndMonitor checks the Scan op kind flows through
// Execute, honors its Limit, and lands in the monitor (the shard op-log)
// so Retrain sees scan-shaped workloads.
func TestScanOpExecuteAndMonitor(t *testing.T) {
	e := openTest(t, ModeCasper, 2_000)
	e.StartMonitor(100)
	if got := e.Execute(Op{Kind: Scan, Key: 0, Key2: math.MaxInt64, Limit: 7}); got != 7 {
		t.Fatalf("Execute(Scan, Limit 7) = %d", got)
	}
	// A window holding nothing but the scan retrains: the solver takes it as
	// a range access over the requested span.
	if err := e.Retrain(1); err != nil {
		t.Fatalf("Retrain from a scan-only window: %v", err)
	}
	ops := e.StopMonitor()
	found := false
	for _, op := range ops {
		if op.Kind == Scan && op.Limit == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("Scan op not recorded by the monitor")
	}
	// A scan-heavy preset generates and trains without error.
	sample, err := PresetWorkload(ScanHeavy, UniformKeys(500, 20_000, 4), 20_000, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	nScan := 0
	for _, op := range sample {
		if op.Kind == Scan {
			nScan++
		}
	}
	if nScan == 0 {
		t.Fatal("scan-heavy preset generated no Scan ops")
	}
	if err := e.Train(sample, 2); err != nil {
		t.Fatalf("Train on scan-heavy sample: %v", err)
	}
}
