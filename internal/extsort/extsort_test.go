package extsort

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fpdyn/internal/faultinject"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

func atoiDecoder() func(p []byte) (int, error) {
	return func(p []byte) (int, error) { return strconv.Atoi(string(p)) }
}

// intSorter builds a Sorter[int] over a test directory.
func intSorter(t *testing.T, maxRun int, reg *obs.Registry) *Sorter[int] {
	t.Helper()
	s, err := New(Options[int]{
		Dir:         filepath.Join(t.TempDir(), "spill"),
		Less:        func(a, b int) bool { return a < b },
		Encode:      func(dst []byte, v int) ([]byte, error) { return strconv.AppendInt(dst, int64(v), 10), nil },
		NewDecoder:  atoiDecoder,
		MaxRunItems: maxRun,
		Registry:    reg,
		Name:        "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func drain(t *testing.T, st *Stream[int]) []int {
	t.Helper()
	var out []int
	for {
		v, ok, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

func TestPushMergeSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := intSorter(t, 64, nil)
	defer s.Close()
	var want []int
	for i := 0; i < 1000; i++ {
		v := rng.Intn(10000)
		want = append(want, v)
		if err := s.Push(v); err != nil {
			t.Fatal(err)
		}
	}
	sort.Ints(want)
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := drain(t, st)
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if s.Runs() < 10 {
		t.Fatalf("expected many runs at MaxRunItems=64, got %d", s.Runs())
	}
	if s.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count())
	}
}

// TestMergeRestream asserts Merge can be called repeatedly and replays
// the identical sequence — the contract the two-pass ground-truth
// build depends on.
func TestMergeRestream(t *testing.T) {
	s := intSorter(t, 16, nil)
	defer s.Close()
	for i := 100; i > 0; i-- {
		if err := s.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	st1, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	first := drain(t, st1)
	st1.Close()
	st2, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	second := drain(t, st2)
	st2.Close()
	if len(first) != 100 || len(second) != 100 {
		t.Fatalf("lengths %d, %d; want 100", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("restream diverged at %d: %d vs %d", i, first[i], second[i])
		}
	}
	if err := s.Push(1); err == nil {
		t.Fatal("Push after Merge should fail")
	}
}

// TestWriteRunPresorted exercises the direct run-writer path the
// simulator uses: per-batch sorted runs, merged across runs.
func TestWriteRunPresorted(t *testing.T) {
	s := intSorter(t, 0, nil)
	defer s.Close()
	if err := s.WriteRun([]int{1, 4, 7, 10}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRun([]int{2, 3, 8}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteRun([]int{0, 5, 6, 9}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := drain(t, st)
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d: got %d", i, v)
		}
	}
}

// TestTornRunFails truncates a run file mid-frame: the merge must
// surface a torn-frame error instead of silently dropping the tail.
func TestTornRunFails(t *testing.T) {
	s := intSorter(t, 0, nil)
	defer s.Close()
	big := make([]int, 200)
	for i := range big {
		big[i] = i * 3
	}
	if err := s.WriteRun(big); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.opts.Dir, "run-000000.seg")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sawErr := false
	for {
		_, ok, err := st.Next()
		if err != nil {
			if !errors.Is(err, storage.ErrTornFrame) {
				t.Fatalf("want ErrTornFrame, got %v", err)
			}
			sawErr = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawErr {
		t.Fatal("truncated run merged without error")
	}
}

// TestCorruptRunFails flips a payload byte: checksum error, not bad data.
func TestCorruptRunFails(t *testing.T) {
	s := intSorter(t, 0, nil)
	defer s.Close()
	if err := s.WriteRun([]int{11111, 22222, 33333}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.opts.Dir, "run-000000.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[9] ^= 0xFF // inside the first payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.Merge()
	if err == nil {
		// The first advance happens inside Merge; depending on which
		// frame is hit the error can surface on Next instead.
		_, _, err = st.Next()
		st.Close()
	}
	if !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
}

// TestSpillWriteFault scripts a write failure through faultinject: the
// spill must fail loudly, not produce a short run.
func TestSpillWriteFault(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options[int]{
		Dir:        filepath.Join(dir, "spill"),
		Less:       func(a, b int) bool { return a < b },
		Encode:     func(dst []byte, v int) ([]byte, error) { return strconv.AppendInt(dst, int64(v), 10), nil },
		NewDecoder: atoiDecoder,
		OpenFile: func(path string) (storage.SegmentFile, error) {
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			return &faultinject.File{F: f, Script: &faultinject.Script{FailAfter: 10}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	if err := s.WriteRun(items); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected write error, got %v", err)
	}
	if s.Runs() != 0 {
		t.Fatalf("failed run was recorded: %d runs", s.Runs())
	}
}

// TestMetrics checks the obs wiring: runs, bytes, items and the heap
// gauge move as the sorter works.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := intSorter(t, 8, reg)
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Push(i); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	key := func(name string) string { return fmt.Sprintf("%s{sort=%q}", name, "test") }
	if got := snap.Counters[key("extsort_items_total")]; got != 50 {
		t.Fatalf("items counter = %d, want 50", got)
	}
	if got := snap.Counters[key("extsort_runs_total")]; got < 6 {
		t.Fatalf("runs counter = %d, want >= 6", got)
	}
	if got := snap.Gauges[key("extsort_merge_heap_size")]; got <= 0 {
		t.Fatalf("heap gauge = %v, want > 0", got)
	}
	drain(t, st)
	st.Close()
	snap = reg.Snapshot()
	if got := snap.Gauges[key("extsort_merge_heap_size")]; got != 0 {
		t.Fatalf("heap gauge after drain = %v, want 0", got)
	}
}

// A frame whose CRC holds but whose payload does not decode is named by
// the byte where it starts, like the frame errors ReadFrame reports.
func TestDecodeErrorNamesFrameStart(t *testing.T) {
	s, err := New(Options[int]{
		Dir:  filepath.Join(t.TempDir(), "spill"),
		Less: func(a, b int) bool { return a < b },
		Encode: func(dst []byte, v int) ([]byte, error) {
			if v == 7 {
				return append(dst, 'x'), nil // CRC-valid, not a number
			}
			return strconv.AppendInt(dst, int64(v), 10), nil
		},
		NewDecoder: atoiDecoder,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteRun([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Merge()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for {
		_, ok, err := st.Next()
		if err != nil {
			// Seven one-byte payloads of 9 framed bytes each precede it.
			if want := "run-000000.seg at byte 63: decode"; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not contain %q", err, want)
			}
			return
		}
		if !ok {
			t.Fatal("undecodable frame merged without error")
		}
	}
}

// FuzzRunReader feeds arbitrary bytes to the run reader as one run
// file. It must never panic; what it yields is a prefix of valid
// frames, and on an error the reported offset is where that prefix
// ends — the start of the frame that failed.
func FuzzRunReader(f *testing.F) {
	var seed []byte
	for _, p := range []string{"a", "", "bc", "x", "def"} {
		seed = storage.AppendFrame(seed, []byte(p))
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(Options[string]{
			Dir:    filepath.Join(t.TempDir(), "spill"),
			Less:   func(a, b string) bool { return a < b },
			Encode: func(dst []byte, v string) ([]byte, error) { return append(dst, v...), nil },
			NewDecoder: func() func(p []byte) (string, error) {
				return func(p []byte) (string, error) {
					if len(p) > 0 && p[0] == 'x' {
						return "", errors.New("undecodable")
					}
					return string(p), nil
				}
			},
			MaxFrame: 1 << 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		path := filepath.Join(s.opts.Dir, "run-000000.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s.runs = append(s.runs, path)
		// Next decodes one frame ahead: the item it returns with an
		// error is valid, the frame after it is not.
		var valid []byte
		st, err := s.Merge()
		for err == nil {
			v, ok, nerr := st.Next()
			if nerr == nil && !ok {
				break
			}
			valid = storage.AppendFrame(valid, []byte(v))
			err = nerr
		}
		if st != nil {
			st.Close()
		}
		if err == nil {
			if !bytes.Equal(valid, data) {
				t.Fatalf("clean end after %d of %d bytes", len(valid), len(data))
			}
			return
		}
		if want := fmt.Sprintf("at byte %d:", len(valid)); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q, want offset %d", err, len(valid))
		}
	})
}
