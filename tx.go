package casper

// Public transaction API: snapshot-isolation transactions over row presence
// (internal/txn validates, the engine applies).

import (
	"errors"
	"fmt"

	"casper/internal/txn"
)

// Tx is a snapshot-isolation transaction over row presence. Reads observe
// the snapshot at Begin; buffered writes apply to storage only on Commit.
// Concurrent transactions writing the same key conflict: the first to
// commit wins, later ones abort.
type Tx struct {
	e     *Engine
	inner *txn.Txn
	ops   []Op
}

// Begin starts a transaction.
func (e *Engine) Begin() *Tx {
	return &Tx{e: e, inner: e.mgr.Begin()}
}

// seen ensures the version store knows the storage state of key before the
// transaction reasons about it.
func (t *Tx) seen(key int64) {
	if _, ok := t.e.mgr.ReadCommitted(key); !ok {
		if n := t.e.sh.PointQuery(key); n > 0 {
			t.e.mgr.Seed(key, int64(n))
		}
	}
}

// Exists reports whether a row with the key is visible in the snapshot.
func (t *Tx) Exists(key int64) (bool, error) {
	t.seen(key)
	v, ok, err := t.inner.Read(key)
	if err != nil {
		return false, err
	}
	return ok && v > 0, nil
}

// Insert buffers a row insertion.
func (t *Tx) Insert(key int64) error {
	t.seen(key)
	v, _, err := t.inner.Read(key)
	if err != nil {
		return err
	}
	if err := t.inner.Write(key, v+1); err != nil {
		return err
	}
	t.ops = append(t.ops, Op{Kind: Insert, Key: key})
	return nil
}

// Delete buffers a row deletion.
func (t *Tx) Delete(key int64) error {
	t.seen(key)
	v, ok, err := t.inner.Read(key)
	if err != nil {
		return err
	}
	if !ok || v <= 0 {
		return fmt.Errorf("casper: delete of absent key %d", key)
	}
	if v == 1 {
		if err := t.inner.Delete(key); err != nil {
			return err
		}
	} else if err := t.inner.Write(key, v-1); err != nil {
		return err
	}
	t.ops = append(t.ops, Op{Kind: Delete, Key: key})
	return nil
}

// Update buffers a key change.
func (t *Tx) Update(old, new int64) error {
	if err := t.Delete(old); err != nil {
		return err
	}
	if err := t.Insert(new); err != nil {
		return err
	}
	// Collapse the pair into one storage-level update so the payload
	// travels with the row.
	t.ops = t.ops[:len(t.ops)-2]
	t.ops = append(t.ops, Op{Kind: Update, Key: old, Key2: new})
	return nil
}

// Commit validates the transaction (first committer wins) and applies its
// writes to storage.
func (t *Tx) Commit() error {
	if err := t.inner.Commit(); err != nil {
		if o := t.e.sh.Obs(); o.Enabled() && errors.Is(err, txn.ErrConflict) {
			o.TxnConflicts.Inc(0)
		}
		return err
	}
	if o := t.e.sh.Obs(); o.Enabled() {
		o.TxnCommits.Inc(0)
	}
	for _, op := range t.ops {
		t.e.Execute(op)
	}
	return nil
}

// Abort discards the transaction.
func (t *Tx) Abort() {
	t.inner.Abort()
	if o := t.e.sh.Obs(); o.Enabled() {
		o.TxnAborts.Inc(0)
	}
}
