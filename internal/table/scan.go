// Partition-bounded scan iteration: the lazy read path under every ordered
// range consumer in the engine (aggregates need no order and never come
// here; see Table.RangeSum/MultiRangeSum). A ScanIter walks the chunks
// overlapping [lo, hi] and, inside a chunk, the partitions — the unit of
// capture is the one partition owning the resume key (the whole chunk for
// the unpartitioned baselines), so memory and first-row latency are bounded
// by the partition and batch sizes, not by the range or the result.
//
// Select-then-sort: partitions are range-ordered but unordered inside, so a
// batch must order the partition it is drawn from. The first capture from a
// partition holding many more candidates than the batch asks for selects
// only the smallest keys (bounded heap, complete duplicate run at the cut)
// and sorts those; a second visit to the same partition sorts what remains
// once — unless a writer touched the chunk in between, in which case the
// capture would be invalidated before it paid off and the visit selects
// again. A LIMIT-shaped scan thus pays one pass over one partition, a full
// drain at most one extra pass per partition, and a drain racing writers a
// pass per batch instead of a sort per batch.
//
// The consistency contract is unchanged: per-chunk, per-batch atomicity.
package table

import "sync"

// DefaultScanBatch is the batch row count used when a caller passes max <= 0
// to NextBatch, and the batch size of the package's own scan-based readers
// (Snapshot, Keys, KeysInRange).
const DefaultScanBatch = 1024

// RowBuf is a reusable scan batch: parallel Keys/Rows slices backed by a
// flat arena, refilled in place by ScanIter.NextBatch so steady-state
// batches allocate nothing. Rows is nil for keys-only scans; Rows[i] aliases
// the arena and is valid only until the next NextBatch call on the same
// buffer — callers retaining rows must copy them.
type RowBuf struct {
	Keys []int64
	Rows [][]int32
	data []int32
}

// Len returns the number of rows in the batch.
func (b *RowBuf) Len() int { return len(b.Keys) }

// Reset empties the batch, keeping capacity.
func (b *RowBuf) Reset() {
	b.Keys = b.Keys[:0]
	b.Rows = b.Rows[:0]
	b.data = b.data[:0]
}

// ScanIter streams the live rows of one table with key in [lo, hi] in
// ascending key order (duplicates in physical-position order), one partition
// at a time. It holds no locks between NextBatch calls: each batch takes the
// current chunk's read lock, validates the chunk version captured with its
// candidate set, and recaptures from the resume key if a writer intervened.
// Batches always end at a key boundary (a duplicate-key run is never split
// across batches), so the iterator can always resume at lastKey+1
// regardless of concurrent mutation.
//
// Consistency matches Snapshot's contract: per-chunk atomicity only. A row
// inserted behind the scan position is missed; one inserted ahead is
// observed; neither is ever torn.
type ScanIter struct {
	t        *Table
	hi       int64
	resume   int64 // next key the scan may observe
	ci, cb   int   // current and last chunk ordinal
	withRows bool

	// capture: every live row of chunk ci with key in [resume, capHi],
	// sorted. fence is the upper key bound of the partition it was drawn
	// from; capHi < min(fence, hi) marks a selection cut, after which
	// revisit makes the next capture of that partition take all that is left.
	loaded       bool
	revisit      bool
	ver          uint64
	i            int // consumption index into cand
	fence, capHi int64
	cand, tmp    []keyPos // tmp: sortCand's scatter target
	posBuf       []int
	heap         []int64
}

// keyPos is one captured row: its key and physical position in the chunk.
type keyPos struct {
	key int64
	pos int
}

// selectFactor is how many times the requested batch a partition's
// candidate set must exceed before a first capture selects instead of
// sorting everything: below it the full sort is about as cheap and saves the
// second visit.
const selectFactor = 4

var scanIterPool = sync.Pool{New: func() any { return new(ScanIter) }}

var rowBufPool = sync.Pool{New: func() any { return new(RowBuf) }}

func getRowBuf() *RowBuf  { return rowBufPool.Get().(*RowBuf) }
func putRowBuf(b *RowBuf) { rowBufPool.Put(b) }

// ScanRange returns an iterator over the live rows with key in [lo, hi],
// ascending, with payload rows. Close the iterator when done to recycle it.
func (t *Table) ScanRange(lo, hi int64) *ScanIter { return t.newScan(lo, hi, true) }

// ScanRangeKeys is ScanRange without payload copying: NextBatch fills only
// buf.Keys, for consumers that plan by key alone.
func (t *Table) ScanRangeKeys(lo, hi int64) *ScanIter { return t.newScan(lo, hi, false) }

func (t *Table) newScan(lo, hi int64, withRows bool) *ScanIter {
	it := scanIterPool.Get().(*ScanIter)
	a, b := t.chunkRange(lo, hi)
	it.t = t
	it.hi = hi
	it.resume = lo
	it.ci, it.cb = a, b
	it.withRows = withRows
	it.loaded, it.revisit = false, false
	if hi < lo {
		it.cb = it.ci - 1
	}
	return it
}

// Close releases the iterator back to the pool. The iterator must not be
// used afterwards.
func (it *ScanIter) Close() {
	if it == nil || it.t == nil {
		return
	}
	it.t = nil
	it.loaded = false
	scanIterPool.Put(it)
}

// NextBatch fills buf with the next batch of rows in ascending key order and
// reports whether it produced any. Batches hold at most max rows (max <= 0
// selects DefaultScanBatch) but are extended past max to finish a
// duplicate-key run, so consecutive batches never share a key. A false
// return means the scan is exhausted; buf is empty.
func (it *ScanIter) NextBatch(buf *RowBuf, max int) bool {
	buf.Reset()
	if it.t == nil {
		return false
	}
	if max <= 0 {
		max = DefaultScanBatch
	}
	for it.ci <= it.cb && len(buf.Keys) < max {
		ck := it.t.chunks[it.ci]
		ck.mu.RLock()
		if !it.loaded || ck.ver != it.ver {
			it.capture(ck, max-len(buf.Keys))
		}
		n := len(it.cand)
		for it.i < n {
			k := it.cand[it.i].key
			if len(buf.Keys) >= max && k != buf.Keys[len(buf.Keys)-1] {
				break
			}
			buf.Keys = append(buf.Keys, k)
			if it.withRows {
				p := it.cand[it.i].pos
				for _, col := range ck.mover.cols {
					buf.data = append(buf.data, col[p])
				}
			}
			it.i++
		}
		done := it.i >= n
		ck.mu.RUnlock()
		if !done {
			break // batch full at a key boundary inside this capture
		}
		// Capture consumed: step past it — to the rest of the same
		// partition after a selection cut, else to the next partition,
		// else (no fence left below hi) to the next chunk.
		it.loaded = false
		switch {
		case it.capHi < it.fence && it.capHi < it.hi:
			it.resume, it.revisit = it.capHi+1, true
		case it.fence < it.hi:
			it.resume, it.revisit = it.fence+1, false
		default:
			it.ci++
			it.revisit = false
		}
	}
	if it.withRows {
		// Rebuild Rows as arena windows only after the arena stopped
		// growing: appends may have reallocated data mid-batch.
		w := it.t.cfg.PayloadCols
		for i := range buf.Keys {
			buf.Rows = append(buf.Rows, buf.data[i*w:(i+1)*w:(i+1)*w])
		}
	}
	if len(buf.Keys) == 0 {
		return false
	}
	if last := buf.Keys[len(buf.Keys)-1]; last >= it.hi {
		// last == hi: nothing left to observe (also avoids lastKey+1
		// overflow when hi is MaxInt64).
		it.ci = it.cb + 1
		it.loaded = false
	} else if last >= it.resume {
		// (A capture consumed whole already moved resume past its bound.)
		it.resume = last + 1
	}
	return true
}

// capture snapshots the rows of the partition of ck that owns the resume key,
// from the resume key up, sorted by (key, position) — the order a stable
// key sort of RangePositions output gives, whatever the batch size. When the
// partition holds more than selectFactor×want candidates, only the want
// smallest keys (plus the rest of the duplicate run at the cut) are kept —
// unless this is a second visit to a partition nobody wrote in between. Caller holds ck.mu; the capture stays valid as
// long as ck.ver is unchanged, which NextBatch revalidates under the lock on
// every call.
func (it *ScanIter) capture(ck *chunk, want int) {
	it.fence = ck.store.Fence(it.resume)
	it.capHi = min(it.fence, it.hi)
	it.posBuf = ck.store.RangePositions(it.resume, it.capHi, it.posBuf[:0])
	// Sorting all that is left pays off only if the capture then serves
	// several batches: on a second visit, and only while no writer has
	// touched the chunk since the first (else it would be redone anyway).
	if !(it.revisit && ck.ver == it.ver) && len(it.posBuf)/selectFactor > want {
		it.capHi = it.kthKey(ck, want)
	}
	it.cand = it.cand[:0]
	for _, p := range it.posBuf {
		if k := ck.keyAt(p); k <= it.capHi {
			it.cand = append(it.cand, keyPos{k, p})
		}
	}
	it.sortCand()
	it.ver = ck.ver
	it.loaded = true
	it.i = 0
}

// sortCand orders the capture by (key, position). Candidates arrive in
// position order, so a stable sort on the key alone does it: an LSD radix
// sort over only the low bytes in which the captured keys differ. The keys
// of one partition share their high bytes, so two or three counting passes
// replace a comparison sort — which the shape of a partition under ingest
// (a sorted bulk load with a random tail of appended inserts) serves badly.
func (it *ScanIter) sortCand() {
	a := it.cand
	if len(a) < 2 {
		return
	}
	lo, hi, sorted := a[0].key, a[0].key, true
	for i := 1; i < len(a); i++ {
		k := a[i].key
		sorted = sorted && k >= a[i-1].key
		lo, hi = min(lo, k), max(hi, k)
	}
	if sorted {
		return
	}
	if cap(it.tmp) < len(a) {
		it.tmp = make([]keyPos, len(a))
	}
	b := it.tmp[:len(a)]
	for shift, span := 0, uint64(hi)-uint64(lo); shift < 64 && span>>shift != 0; shift += 8 {
		var next [256]int // next[d]: where the next key with digit d goes
		for _, c := range a {
			next[uint8((uint64(c.key)-uint64(lo))>>shift)]++
		}
		sum := 0
		for d, n := range next {
			next[d], sum = sum, sum+n
		}
		for _, c := range a {
			d := uint8((uint64(c.key) - uint64(lo)) >> shift)
			b[next[d]] = c
			next[d]++
		}
		a, b = b, a
	}
	it.cand, it.tmp = a, b
}

// kthKey returns the k-th smallest candidate key, keeping the k smallest
// seen so far in a max-heap: one pass, and once the heap is full a candidate
// costs one comparison unless it displaces the current maximum.
func (it *ScanIter) kthKey(ck *chunk, k int) int64 {
	h := it.heap[:0]
	for _, p := range it.posBuf {
		switch x := ck.keyAt(p); {
		case len(h) < k:
			h = append(h, x)
			for i := len(h) - 1; i > 0 && h[(i-1)/2] < h[i]; i = (i - 1) / 2 {
				h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
			}
		case x < h[0]:
			h[0] = x
			for i := 0; ; {
				ch := 2*i + 1
				if ch+1 < k && h[ch+1] > h[ch] {
					ch++
				}
				if ch >= k || h[ch] <= h[i] {
					break
				}
				h[i], h[ch] = h[ch], h[i]
				i = ch
			}
		}
	}
	it.heap = h
	return h[0]
}
