package store

import (
	"fmt"
	"sync"
)

// FaultOp selects which SpillStore operations a FaultSpill counts toward
// its failure trigger.
type FaultOp uint8

// Fault-countable operations. FaultRead counts every Read and Tail of a
// scan cursor the store opened; FaultAny counts every data-path operation
// (Append, cursor reads and Truncate). Opening a scan, Stats and Close
// never fault.
const (
	FaultAppend FaultOp = 1 << iota
	FaultRead
	FaultTruncate

	FaultAny = FaultAppend | FaultRead | FaultTruncate
)

// FaultSpill wraps a SpillStore and injects an error on the Nth counted
// operation and every counted operation after it (a failed disk stays
// failed). It exists so tests can prove the operators surface spill
// errors instead of corrupting state or panicking — the same error path
// the tracer records as a spill-error event.
type FaultSpill struct {
	inner  SpillStore
	mask   FaultOp
	err    error
	mu     sync.Mutex
	count  int64 // counted ops seen so far
	failAt int64 // 1-based index of the first failing op
}

// NewFaultSpill wraps inner so that the failAt-th operation matching mask
// (1-based), and every matching operation after it, fails with err.
// failAt <= 0 never fails.
func NewFaultSpill(inner SpillStore, mask FaultOp, failAt int64, err error) *FaultSpill {
	if err == nil {
		err = fmt.Errorf("store: injected spill fault")
	}
	return &FaultSpill{inner: inner, mask: mask, err: err, failAt: failAt}
}

// tick counts one operation of the given kind and reports the injected
// error once the trigger is reached.
func (f *FaultSpill) tick(op FaultOp) error {
	if f.mask&op == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count++
	if f.failAt > 0 && f.count >= f.failAt {
		return f.err
	}
	return nil
}

// Append implements SpillStore.
func (f *FaultSpill) Append(partition int, data []byte) error {
	if err := f.tick(FaultAppend); err != nil {
		return err
	}
	return f.inner.Append(partition, data)
}

// Truncate implements SpillStore.
func (f *FaultSpill) Truncate(partition int) error {
	if err := f.tick(FaultTruncate); err != nil {
		return err
	}
	return f.inner.Truncate(partition)
}

// OpenScan implements SpillStore. Opening is free (no data touched); the
// cursor's reads count toward FaultRead. A re-armed
// cursor hands its inner cursor to the inner store for re-arming too.
func (f *FaultSpill) OpenScan(partition int, reuse ScanCursor) (ScanCursor, error) {
	c, ok := reuse.(*faultScan)
	if !ok {
		c = new(faultScan)
	}
	sc, err := f.inner.OpenScan(partition, c.inner)
	if err != nil {
		return nil, err
	}
	*c = faultScan{f: f, inner: sc}
	return c, nil
}

// faultScan wraps an inner cursor so every chunk read counts toward the
// fault trigger.
type faultScan struct {
	f     *FaultSpill
	inner ScanCursor
}

func (c *faultScan) Read(p []byte) (int, error) {
	if err := c.f.tick(FaultRead); err != nil {
		return 0, err
	}
	return c.inner.Read(p)
}

func (c *faultScan) Tail(dst []byte) ([]byte, error) {
	if err := c.f.tick(FaultRead); err != nil {
		return dst, err
	}
	return c.inner.Tail(dst)
}

func (c *faultScan) Close() error { return c.inner.Close() }

// Stats implements SpillStore.
func (f *FaultSpill) Stats() (IOStats, error) { return f.inner.Stats() }

// Close implements SpillStore.
func (f *FaultSpill) Close() error { return f.inner.Close() }

var _ SpillStore = (*FaultSpill)(nil)
