// Streaming read path: per-shard partition-bounded scans (table.ScanIter)
// feeding a k-way loser-tree merge, consumed through a Cursor (paginated,
// LIMIT, resumable). Only ordered consumers come here — aggregates need no
// key order and fold per shard instead (Engine.foldShards). See the package
// comment's lock-order section for the scan locking contract; the short
// version is that a streaming scan holds its gate stripe and shard lock only
// while filling one batch, never across consumer yields, and a batch is
// drawn from one partition at a time: a LIMIT scan whose first batch meets
// its row budget reads one partition once and never schedules a second
// fill. Consistency is per-chunk, per-batch atomicity, as before.
package shard

import (
	"fmt"
	"math"
	"sync"

	"casper/internal/obs"
	"casper/internal/table"
	"casper/internal/workload"
)

// sourceBuf is one filled batch of a shardSource: the physical rows pulled
// from the table iterator (rb) plus, when staged moves compensate into the
// batch window, the merged key/row sequence in mk/mr. keys/rows are views
// over whichever of the two backs this batch; done marks the final batch.
type sourceBuf struct {
	rb   table.RowBuf
	mk   []int64
	mr   [][]int32
	keys []int64
	rows [][]int32
	done bool
}

// shardSource streams one shard's live rows with keys in [cursor, hi],
// ascending, batch by batch, staged moves compensated in. Two modes:
//
//   - pinned (pinned != nil): the caller holds the gate stripes covering
//     this shard (a View) and the snapshot is frozen — fill touches no
//     stripe and compensates from the pinned snapshot's move index.
//   - cursor (pinned == nil): fill acquires this shard's gate stripe shared
//     for the duration of one batch only, releasing it before the consumer
//     sees the rows, and adopts the routing snapshot current at each fill —
//     an install landing mid-scan is observed at the next batch boundary.
//
// Batches end at key boundaries (the table iterator never splits a
// duplicate run), so the resume cursor is always lastKey+1 and a batch's
// staged-move compensation window (cursor, upTo] tiles the scanned range
// exactly once per snapshot.
//
// Sources are recycled through sourcePool with their batch arenas, scratch
// and hand-off channel, so a steady stream of scans allocates no buffers.
type shardSource struct {
	e      *Engine
	si     int
	hi     int64
	cursor int64
	pinned *routeSnap
	batch  int
	// budget is the number of rows the cursor can still consume (its Limit
	// less what it yielded; MaxInt when unlimited): the fill that meets it
	// is the source's last, so no read-ahead is spent on rows nobody asks for.
	budget int

	it      *table.ScanIter
	tbl     *table.Table
	srcDone bool

	// Read-ahead state: two batch buffers cycled through a capacity-1
	// channel. Exactly one fill is outstanding at a time, so fills are
	// serialized and the channel hand-off provides the happens-before edge
	// for the buffer contents.
	bufs    [2]sourceBuf
	pre     chan *sourceBuf
	pending bool
	cur     *sourceBuf
	curI    int

	// scratch reused across fills
	moveK []int64
	moveR [][]int32
}

var sourcePool = sync.Pool{New: func() any { return &shardSource{pre: make(chan *sourceBuf, 1)} }}

// fill produces the next batch into b. At most one fill per source runs at
// a time (prefetch serializes through the hand-off channel).
func (s *shardSource) fill(b *sourceBuf) {
	b.keys, b.rows, b.done = nil, nil, false
	if s.srcDone {
		b.done = true
		return
	}
	v := s.pinned
	if v == nil {
		st := &s.e.stripes[s.si]
		st.mu.RLock()
		defer st.mu.RUnlock()
		v = s.e.route.Load()
	}
	sh := s.e.shards[s.si]
	tableDone := true
	sh.mu.RLock()
	if t := sh.tbl; t != nil {
		if t != s.tbl {
			// First fill, or a shadow retrain swapped the table between
			// batches: the journal-replayed replacement holds the same
			// logical rows, so restarting an iterator at the resume cursor
			// continues the scan exactly.
			if s.it != nil {
				s.it.Close()
			}
			s.it = t.ScanRange(s.cursor, s.hi)
			s.tbl = t
		}
		tableDone = !s.it.NextBatch(&b.rb, s.batch)
	}
	sh.mu.RUnlock()
	upTo := s.hi
	if !tableDone {
		upTo = b.rb.Keys[len(b.rb.Keys)-1]
	}
	// Staged moves whose rows are still visible at their old key on this
	// shard, within this batch's window. Entries are claimed by the
	// snapshot's own routing so that, under a pinned snapshot, every staged
	// row lands in exactly one source's window.
	s.moveK, s.moveR = s.moveK[:0], s.moveR[:0]
	v.moves.forRange(s.cursor, upTo, func(m *pendingMove) {
		if v.part.Shard(m.old) == s.si {
			s.moveK = append(s.moveK, m.old)
			s.moveR = append(s.moveR, m.row)
		}
	})
	// Metrics: a batch yielded toward the cursor and any staged-move rows
	// compensated into its window. Recording here is atomics-only and, in
	// cursor mode, runs under the shared gate stripe — both allowed by the
	// lock-order contract.
	if o := s.e.obs; o.Enabled() {
		if len(b.rb.Keys)+len(s.moveK) > 0 {
			o.CursorBatches.Inc(s.si)
		}
		if len(s.moveK) > 0 {
			o.CompHits.Add(s.si, uint64(len(s.moveK)))
		}
	}
	if len(s.moveK) == 0 {
		b.keys, b.rows = b.rb.Keys, b.rb.Rows
	} else {
		// Merge physical rows and staged rows (both ascending; physical
		// first on ties) into the dedicated merged buffers — never in
		// place over rb, which is also an input.
		b.mk, b.mr = b.mk[:0], b.mr[:0]
		pk := b.rb.Keys
		i, j := 0, 0
		for i < len(pk) || j < len(s.moveK) {
			if j >= len(s.moveK) || (i < len(pk) && pk[i] <= s.moveK[j]) {
				b.mk = append(b.mk, pk[i])
				b.mr = append(b.mr, b.rb.Rows[i])
				i++
			} else {
				b.mk = append(b.mk, s.moveK[j])
				b.mr = append(b.mr, s.moveR[j])
				j++
			}
		}
		b.keys, b.rows = b.mk, b.mr
	}
	s.budget -= len(b.keys)
	if tableDone || upTo >= s.hi || s.budget <= 0 {
		// Physical rows exhausted, the batch ended exactly at hi (a
		// duplicate run is never split, so nothing in range remains), or
		// the cursor's row budget is met.
		s.srcDone = true
		b.done = true
		return
	}
	s.cursor = upTo + 1
}

// openSource takes a source from the pool, aims it at shard si and arms the
// read-ahead pipeline: the first fill is scheduled on the engine's fan-out
// pool immediately, so a k-source cursor prefetches all shards in parallel
// before the first Next.
func (c *Cursor) openSource(si int, lo int64, batch, budget int) *shardSource {
	s := sourcePool.Get().(*shardSource)
	s.e, s.si, s.hi, s.cursor, s.pinned = c.e, si, c.hi, lo, c.pinned
	s.batch, s.budget = batch, budget
	s.srcDone, s.cur, s.curI = false, nil, 0
	s.scheduleFill(&s.bufs[0])
	return s
}

func (s *shardSource) scheduleFill(b *sourceBuf) {
	s.pending = true
	s.e.pool.submit(func() {
		s.fill(b)
		s.pre <- b
	})
}

// next yields the source's next (key, row) pair. The returned row aliases
// the current batch buffer and stays valid until the call after the one
// that crosses into the next batch — the freed buffer is only rescheduled
// for refill at that crossing.
func (s *shardSource) next() (int64, []int32, bool) {
	for {
		if s.cur != nil {
			if s.curI < len(s.cur.keys) {
				k, r := s.cur.keys[s.curI], s.cur.rows[s.curI]
				s.curI++
				return k, r, true
			}
			if s.cur.done {
				return 0, nil, false
			}
		}
		prev := s.cur
		s.cur = <-s.pre
		s.pending = false
		s.curI = 0
		if !s.cur.done {
			if prev == nil {
				prev = &s.bufs[1]
			}
			s.scheduleFill(prev)
		}
	}
}

// close releases the source: it waits out any in-flight prefetch (which may
// briefly hold the gate stripe), recycles the table iterator and only then
// returns the source to the pool — nobody else can be handed buffers a fill
// is still writing. The source must not be used afterwards.
func (s *shardSource) close() {
	if s.pending {
		<-s.pre
		s.pending = false
	}
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	s.e, s.tbl, s.pinned, s.cur = nil, nil, nil, nil
	sourcePool.Put(s)
}

// ---------------------------------------------------------------------------
// k-way loser-tree merge
// ---------------------------------------------------------------------------

// mergeSource is the input stream of the k-way merge: ascending (key, row)
// pairs, ok=false forever once exhausted.
type mergeSource interface {
	next() (key int64, row []int32, ok bool)
}

// mergeIter merges k ascending sources into one ascending stream with a
// loser tree: each advance costs one source pull plus ⌈log2 k⌉ comparisons.
// Ties yield lower-indexed sources first, making the merged order stable
// and deterministic. The previously returned winner is advanced lazily, on
// the next call, so a yielded row stays valid (no buffer recycling under
// it) until the consumer asks for the next one.
type mergeIter struct {
	srcs   []mergeSource
	keys   []int64
	rows   [][]int32
	ok     []bool
	tree   []int // tree[0] overall winner; tree[1..k-1] internal losers
	lastW  int
	inited bool
}

func newMergeIter(srcs []mergeSource) *mergeIter {
	k := len(srcs)
	return &mergeIter{
		srcs:  srcs,
		keys:  make([]int64, k),
		rows:  make([][]int32, k),
		ok:    make([]bool, k),
		tree:  make([]int, k),
		lastW: -1,
	}
}

// wins reports whether source a's head strictly precedes source b's:
// exhausted sources sort last, equal keys break toward the lower index.
func (m *mergeIter) wins(a, b int) bool {
	if !m.ok[a] {
		return false
	}
	if !m.ok[b] {
		return true
	}
	if m.keys[a] != m.keys[b] {
		return m.keys[a] < m.keys[b]
	}
	return a < b
}

// build initializes internal node t's subtree, storing losers on the way
// up and returning the subtree winner. Leaves are sources k..2k-1 in the
// standard complete-tree layout (parent of leaf w+k is (w+k)/2).
func (m *mergeIter) build(t int) int {
	if t >= len(m.srcs) {
		return t - len(m.srcs)
	}
	a := m.build(2 * t)
	b := m.build(2*t + 1)
	if m.wins(a, b) {
		m.tree[t] = b
		return a
	}
	m.tree[t] = a
	return b
}

// sift replays source w's leaf-to-root path after its head changed.
func (m *mergeIter) sift(w int) {
	k := len(m.srcs)
	s := w
	for t := (w + k) / 2; t > 0; t /= 2 {
		if m.wins(m.tree[t], s) {
			m.tree[t], s = s, m.tree[t]
		}
	}
	m.tree[0] = s
}

func (m *mergeIter) next() (int64, []int32, bool) {
	k := len(m.srcs)
	if k == 0 {
		return 0, nil, false
	}
	if !m.inited {
		m.inited = true
		for i, s := range m.srcs {
			m.keys[i], m.rows[i], m.ok[i] = s.next()
		}
		if k > 1 {
			m.tree[0] = m.build(1)
		}
	} else if m.lastW >= 0 {
		w := m.lastW
		m.keys[w], m.rows[w], m.ok[w] = m.srcs[w].next()
		if k > 1 {
			m.sift(w)
		}
	}
	w := 0
	if k > 1 {
		w = m.tree[0]
	}
	if !m.ok[w] {
		m.lastW = -1
		return 0, nil, false
	}
	m.lastW = w
	return m.keys[w], m.rows[w], true
}

// ---------------------------------------------------------------------------
// Cursors
// ---------------------------------------------------------------------------

// ScanOptions configures a streaming scan.
type ScanOptions struct {
	// Limit caps the rows the cursor yields (0 = unlimited). The cap spans
	// SeekTo repositioning: a cursor never yields more than Limit rows
	// total.
	Limit int
	// Batch is the per-shard batch row count (0 = table.DefaultScanBatch,
	// clamped down to Limit when one is set). Smaller batches lower
	// first-row latency and memory; larger ones amortize locking.
	Batch int
	// PageToken resumes a scan after the row a previous cursor's PageToken
	// recorded. An invalid token surfaces through Cursor.Err.
	PageToken string
}

// ErrBadPageToken reports a malformed or truncated page token.
var ErrBadPageToken = fmt.Errorf("shard: malformed page token")

// Cursor streams the live rows with keys in [lo, hi] in ascending key
// order across all spanned shards. Next advances to the next row; Key and
// Payload read it; the payload slice is valid only until the next Next or
// Close. Close releases the cursor's buffers (always call it; a cursor
// holds no locks between Next calls, so it may be paged at leisure).
//
// Consistency: a cursor opened with Engine.Scan holds its per-shard gate
// stripe only while filling one batch, so concurrent writes interleave at
// batch boundaries — rows inserted behind the scan position are missed,
// rows ahead are observed, staged cross-shard moves are compensated per
// batch from the then-current snapshot, and a row whose key is moved (or
// migrated by a rebalance install) across the scan frontier mid-flight may
// be missed or observed twice. A cursor opened with View.Scan is pinned to
// the view's frozen snapshot: no move or install can interleave, and two
// drains inside one View agree exactly (single-shard inserts and deletes
// still land between batches — a View is move-stable, not write-stable).
type Cursor struct {
	e      *Engine
	pinned *routeSnap
	lo, hi int64
	opts   ScanOptions

	srcs  []*shardSource
	merge *mergeIter

	key     int64
	row     []int32
	yielded int
	lastKey int64
	dupN    int

	pk          int64
	prow        []int32
	havePending bool

	done   bool
	closed bool
	err    error

	// tr times the scan from open to Close on the OpScan histogram when the
	// registry sampled it; the zero Track is "not sampled".
	tr obs.Track
}

// Scan opens a streaming cursor over [lo, hi]. The scan is recorded in the
// drift monitor as a range access over the requested span (a Q8 op), like
// any other range read. Do not use an Engine cursor inside a View callback
// — it acquires gate stripes the callback already holds; use View.Scan.
func (e *Engine) Scan(lo, hi int64, opts ScanOptions) *Cursor {
	if e.monitoring() {
		e.record(workload.Op{Kind: workload.Q8Scan, Key: lo, Key2: hi, Limit: opts.Limit})
	}
	return e.newCursor(lo, hi, opts, nil)
}

// Scan opens a cursor pinned to the view's snapshot. It is only valid
// inside the View callback: Next after the callback returns races the
// moves the view was excluding.
func (v *View) Scan(lo, hi int64, opts ScanOptions) *Cursor {
	return v.e.newCursor(lo, hi, opts, v.v)
}

func (e *Engine) newCursor(lo, hi int64, opts ScanOptions, pinned *routeSnap) *Cursor {
	c := &Cursor{e: e, pinned: pinned, lo: lo, hi: hi, opts: opts, lastKey: lo}
	// OpScan counts at open; latency is observed at Close so it covers the
	// whole consumption window, not just cursor construction.
	c.tr = e.obs.OpBegin(obs.OpScan, int(lo))
	skip := 0
	if opts.PageToken != "" {
		k, n, err := parsePageToken(opts.PageToken)
		if err != nil {
			c.err = err
			c.done = true
			return c
		}
		if k >= lo {
			lo = k
			skip = n
		}
	}
	if hi < lo || len(e.shards) == 0 {
		c.done = true
		return c
	}
	c.open(lo, skip)
	return c
}

// open builds the per-shard sources and merge at resume key lo, then
// discards skip rows with key exactly lo (the duplicates a page token
// recorded as already yielded). Each source's row budget is what Limit
// still allows plus the rows about to be skipped.
func (c *Cursor) open(lo int64, skip int) {
	v := c.pinned
	if v == nil {
		v = c.e.loadRoute()
	}
	a, b := v.part.Span(lo, c.hi)
	batch, budget := c.opts.Batch, math.MaxInt
	if batch <= 0 {
		batch = table.DefaultScanBatch
	}
	if c.opts.Limit > 0 {
		if budget = c.opts.Limit - c.yielded + skip; budget <= 0 {
			c.done = true
			return
		}
		batch = min(batch, budget)
	}
	for si := a; si <= b; si++ {
		c.srcs = append(c.srcs, c.openSource(si, lo, batch, budget))
	}
	ms := make([]mergeSource, len(c.srcs))
	for i, s := range c.srcs {
		ms[i] = s
	}
	c.merge = newMergeIter(ms)
	c.lastKey, c.dupN = lo, 0
	for c.dupN < skip {
		k, r, ok := c.merge.next()
		if !ok {
			c.done = true
			return
		}
		if k != lo {
			// Fewer duplicates survive than the token recorded (concurrent
			// deletes); the pulled row is the next result.
			c.pk, c.prow, c.havePending = k, r, true
			return
		}
		c.dupN++
	}
}

// Next advances to the next row, reporting whether one is available.
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		return false
	}
	if c.opts.Limit > 0 && c.yielded >= c.opts.Limit {
		c.done = true
		return false
	}
	var k int64
	var r []int32
	var ok bool
	if c.havePending {
		k, r, ok = c.pk, c.prow, true
		c.havePending = false
	} else {
		k, r, ok = c.merge.next()
	}
	if !ok {
		c.done = true
		return false
	}
	c.key, c.row = k, r
	if k == c.lastKey {
		c.dupN++
	} else {
		c.lastKey, c.dupN = k, 1
	}
	c.yielded++
	return true
}

// Key returns the current row's key; valid after a true Next.
func (c *Cursor) Key() int64 { return c.key }

// Payload returns the current row's payload columns. The slice aliases the
// cursor's batch buffers: it is valid only until the next Next, SeekTo, or
// Close — copy it to retain it.
func (c *Cursor) Payload() []int32 { return c.row }

// Err reports a cursor construction failure (e.g. a malformed page token).
// A drained cursor with a nil Err ended normally.
func (c *Cursor) Err() error { return c.err }

// SeekTo repositions the cursor so the next row is the first with key >=
// key (clamped to the cursor's [lo, hi]), discarding the current
// read-ahead. Rows already yielded keep counting against Limit.
func (c *Cursor) SeekTo(key int64) {
	if c.closed || c.err != nil {
		return
	}
	c.closeSources()
	c.havePending = false
	c.done = false
	if key < c.lo {
		key = c.lo
	}
	if key > c.hi {
		c.done = true
		c.lastKey, c.dupN = key, 0
		return
	}
	c.open(key, 0)
}

// PageToken returns a token that resumes the scan just past the last row
// this cursor yielded (from the cursor's start, when none was yielded
// yet). Pass it as ScanOptions.PageToken to a later Scan — resuming
// tolerates writes in between: the next page starts at the first live row
// after the recorded position, even mid-way through a duplicate-key run.
func (c *Cursor) PageToken() string {
	return fmt.Sprintf("s1:%d:%d", c.lastKey, c.dupN)
}

func parsePageToken(tok string) (key int64, skip int, err error) {
	var k int64
	var n int
	if _, err := fmt.Sscanf(tok, "s1:%d:%d", &k, &n); err != nil || n < 0 {
		return 0, 0, fmt.Errorf("%w: %q", ErrBadPageToken, tok)
	}
	return k, n, nil
}

// Close releases the cursor's sources and buffers. Idempotent.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.done = true
	c.closeSources()
	c.e.obs.OpEnd(obs.OpScan, int(c.lo), c.tr)
}

func (c *Cursor) closeSources() {
	for _, s := range c.srcs {
		s.close()
	}
	c.srcs = c.srcs[:0]
	c.merge = nil
}
