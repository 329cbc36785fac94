package storage

import (
	"errors"
	"os"
	"sync"
	"testing"
	"time"
)

// syncGate scripts the SyncInterval background fsync: the first Sync
// on the first segment file signals entered, waits for release and
// then returns err; every other Sync goes through and is counted per
// file, in open order.
type syncGate struct {
	entered chan struct{}
	release chan struct{}
	err     error

	mu    sync.Mutex
	syncs []int

	releaseOnce sync.Once
}

// unblock lets the gated Sync return; safe to call more than once.
func (g *syncGate) unblock() { g.releaseOnce.Do(func() { close(g.release) }) }

func newSyncGate(err error) *syncGate {
	return &syncGate{entered: make(chan struct{}, 1), release: make(chan struct{}), err: err}
}

func (g *syncGate) open(path string) (SegmentFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.syncs = append(g.syncs, 0)
	return &gatedFile{File: f, g: g, idx: len(g.syncs) - 1}, nil
}

// syncsOf returns the pass-through Sync calls seen by file idx.
func (g *syncGate) syncsOf(idx int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if idx >= len(g.syncs) {
		return 0
	}
	return g.syncs[idx]
}

type gatedFile struct {
	*os.File
	g     *syncGate
	idx   int
	gated sync.Once
}

func (f *gatedFile) Sync() error {
	first := false
	if f.idx == 0 {
		f.gated.Do(func() { first = true })
	}
	if first {
		f.g.entered <- struct{}{}
		<-f.g.release
		if f.g.err != nil {
			return f.g.err
		}
		return f.File.Sync()
	}
	f.g.mu.Lock()
	f.g.syncs[f.idx]++
	f.g.mu.Unlock()
	return f.File.Sync()
}

// openGated opens a SyncInterval WAL on g's files and waits until the
// background fsync is blocked inside the first segment's Sync. The
// gate is released and the WAL closed at cleanup, in that order.
func openGated(t *testing.T, g *syncGate) *WAL {
	t.Helper()
	w, err := OpenWAL(WALOptions{Dir: t.TempDir(), Policy: SyncInterval, Interval: time.Millisecond, OpenFile: g.open})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		g.unblock()
		w.Close()
	})
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("background fsync never ran")
	}
	return w
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALIntervalSyncDoesNotBlockAppend: under SyncInterval an append
// completes while the background fsync is still blocked in Sync.
func TestWALIntervalSyncDoesNotBlockAppend(t *testing.T) {
	g := newSyncGate(nil)
	w := openGated(t, g)
	done := make(chan error, 1)
	go func() { done <- w.AppendRecord(mkRecord(0), "c", 1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AppendRecord waited out a background fsync")
	}
}

// TestWALIntervalSyncFailureIsSticky: a failed background fsync of the
// active segment poisons the log.
func TestWALIntervalSyncFailureIsSticky(t *testing.T) {
	errSync := errors.New("injected fsync failure")
	g := newSyncGate(errSync)
	w := openGated(t, g)
	g.unblock()
	waitFor(t, "the sticky error", func() bool { return w.Err() != nil })
	if !errors.Is(w.Err(), errSync) {
		t.Fatalf("Err() = %v, want the fsync failure", w.Err())
	}
	if err := w.AppendRecord(mkRecord(0), "c", 1); !errors.Is(err, ErrWALSticky) {
		t.Fatalf("append after failed fsync: %v, want ErrWALSticky", err)
	}
}

// rotateDuringGatedSync rotates while the background fsync of the
// first segment is blocked and checks that Rotate does not wait it out.
func rotateDuringGatedSync(t *testing.T, w *WAL) {
	t.Helper()
	rotated := make(chan error, 1)
	go func() {
		_, err := w.Rotate()
		rotated <- err
	}()
	select {
	case err := <-rotated:
		if err != nil {
			t.Fatalf("Rotate with a background fsync in flight: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Rotate waited out a background fsync")
	}
}

// TestWALIntervalSyncFailureAfterRotate: a background fsync that fails
// on a segment Rotate has replaced still poisons the log. The rotation's
// own Sync of that file may have come back clean (the kernel reports a
// writeback error once per open file), so the old segment's unsynced
// bytes may be lost.
func TestWALIntervalSyncFailureAfterRotate(t *testing.T) {
	errSync := errors.New("injected fsync failure")
	g := newSyncGate(errSync)
	w := openGated(t, g)
	rotateDuringGatedSync(t, w)
	g.unblock()
	waitFor(t, "the sticky error", func() bool { return w.Err() != nil })
	if !errors.Is(w.Err(), errSync) {
		t.Fatalf("Err() = %v, want the fsync failure", w.Err())
	}
	if n := w.metrics.fsyncFailures.Value(); n != 1 {
		t.Fatalf("wal_fsync_failures_total = %d, want 1", n)
	}
	if err := w.AppendRecord(mkRecord(0), "c", 1); !errors.Is(err, ErrWALSticky) {
		t.Fatalf("append after failed fsync of a rotated segment: %v, want ErrWALSticky", err)
	}
}

// TestWALIntervalRotateDuringSyncKeepsFileOpen: Rotate leaves closing a
// file to the background fsync still running on it, so a clean sync
// never fails on a closed handle.
func TestWALIntervalRotateDuringSyncKeepsFileOpen(t *testing.T) {
	g := newSyncGate(nil)
	w := openGated(t, g)
	rotateDuringGatedSync(t, w)
	g.unblock()
	// The loop is sequential: once it has synced the new segment, the
	// sync of the old one has finished and the file has been closed.
	waitFor(t, "a background fsync of the new segment", func() bool { return g.syncsOf(1) > 0 })
	if err := w.Err(); err != nil {
		t.Fatalf("Err() = %v after a clean background fsync", err)
	}
	if err := w.AppendRecord(mkRecord(0), "c", 1); err != nil {
		t.Fatal(err)
	}
}

// TestWALIntervalSyncFailureDuringClose: Close waits out a background
// fsync in flight, so its failure is recorded rather than lost.
func TestWALIntervalSyncFailureDuringClose(t *testing.T) {
	errSync := errors.New("injected fsync failure")
	g := newSyncGate(errSync)
	w := openGated(t, g)
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a background fsync was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	g.unblock()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if !errors.Is(w.Err(), errSync) {
		t.Fatalf("Err() = %v after Close, want the fsync failure", w.Err())
	}
	if n := w.metrics.fsyncFailures.Value(); n != 1 {
		t.Fatalf("wal_fsync_failures_total = %d, want 1", n)
	}
}
