package storage

// Recovery of logs written before the binary record codec: segments
// and snapshots whose payloads are JSON objects. The files here are
// made by transcoding what the binary path wrote, frame by frame, into
// the JSON shape the WAL used to write for the same entry; recovering
// them must give the same state as recovering the binary originals.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
)

// legacyWALEntry and legacySeqEntry are the JSON payload shapes of the
// WAL and its compaction snapshots before the binary codec.
type legacyWALEntry struct {
	Record *fingerprint.Record       `json:"rec,omitempty"`
	CID    string                    `json:"cid,omitempty"`
	Seq    uint64                    `json:"seq,omitempty"`
	Hash   string                    `json:"hash,omitempty"`
	Value  []byte                    `json:"val,omitempty"`
	Seqs   map[string]legacySeqEntry `json:"seqs,omitempty"`
}

type legacySeqEntry struct {
	Seq uint64 `json:"seq"`
	Idx int    `json:"idx"`
}

// legacyRecord varies what JSON must carry faithfully: non-UTC client
// timestamps, nil vs empty lists, a nil fingerprint.
func legacyRecord(i int) *fingerprint.Record {
	r := mkRecord(i)
	r.Time = r.Time.In(time.FixedZone("", (i%5-2)*3600+(i%2)*1800))
	switch i % 4 {
	case 0:
		r.FP.Fonts = []string{}
	case 1:
		r.FP.Fonts = []string{"Arial", ""}
		r.FP.Plugins = []string{}
	case 2:
		r.FP = nil
	}
	return r
}

// toLegacy re-encodes one binary payload as the JSON the WAL used to
// write for the same entry.
func toLegacy(t *testing.T, payload []byte) []byte {
	t.Helper()
	var d fingerprint.Decoder
	e, err := decodeEntry(&d, payload)
	if err != nil {
		t.Fatal(err)
	}
	le := legacyWALEntry{Record: e.Record, CID: e.CID, Seq: e.Seq, Hash: e.Hash, Value: e.Value}
	if e.Seqs != nil {
		le.Seqs = make(map[string]legacySeqEntry, len(e.Seqs))
		for cid, se := range e.Seqs {
			le.Seqs[cid] = legacySeqEntry{Seq: se.Seq, Idx: se.Idx}
		}
	}
	b, err := json.Marshal(le)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// transcodeFile rewrites every payload of one segment or snapshot file
// into its legacy JSON form.
func transcodeFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	if _, err := DecodeSegment(data, 0, func(payload []byte) error {
		if payload[0] == '{' {
			t.Fatalf("%s already holds JSON", path)
		}
		out = AppendFrame(out, toLegacy(t, payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// transcodeDir turns the snapshots and the segments numbered up to
// maxSeg of dir into legacy JSON files.
func transcodeDir(t *testing.T, dir string, maxSeg int) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if seg.n <= maxSeg {
			transcodeFile(t, filepath.Join(dir, seg.name))
		}
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range snaps {
		transcodeFile(t, filepath.Join(dir, sn.name))
	}
}

func fillLegacy(t *testing.T, ss *ShardedStore, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if i%4 == 0 {
			if err := ss.PutValueDurable(fmt.Sprintf("hash-%03d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := ss.AppendDurable(legacyRecord(i), fmt.Sprintf("cid-%d", i%3), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
}

// copyTree duplicates a WAL root so one history can be recovered as
// written and as transcoded.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func recoverDigest(t *testing.T, opts ShardedWALOptions) (string, *ShardedStore) {
	t.Helper()
	ss, _, err := RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	return canonDigest(t, ss), ss
}

// TestRecoverLegacyJSONSegments: a sharded root whose segments are all
// JSON recovers to the state that was written — the same digest and
// sequence table as the binary root — and after binary appends on top
// (JSON segments followed by binary ones) it still matches.
func TestRecoverLegacyJSONSegments(t *testing.T) {
	bin := shardedOpts(t, 4)
	ss, _, err := RecoverSharded(bin)
	if err != nil {
		t.Fatal(err)
	}
	fillLegacy(t, ss, 0, 40)
	live := canonDigest(t, ss)
	if err := ss.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	legacy := bin
	legacy.Dir = t.TempDir()
	copyTree(t, bin.Dir, legacy.Dir)
	for i := 0; i < 4; i++ {
		transcodeDir(t, filepath.Join(legacy.Dir, shardDirName(i)), 1<<30)
	}

	for round := 0; round < 2; round++ {
		want, wantSS := recoverDigest(t, bin)
		got, gotSS := recoverDigest(t, legacy)
		if want != live || got != live {
			t.Fatalf("round %d: recovered digests binary %s, legacy %s, written %s", round, want, got, live)
		}
		for c := 0; c < 3; c++ {
			cid := fmt.Sprintf("cid-%d", c)
			ws, _ := wantSS.LastSeq(cid)
			gs, _ := gotSS.LastSeq(cid)
			if ws != gs || ws == 0 {
				t.Fatalf("round %d: LastSeq(%s) = %d, want %d", round, cid, gs, ws)
			}
		}
		if round == 0 {
			// Binary appends after the JSON history, on both roots.
			fillLegacy(t, wantSS, 40, 60)
			fillLegacy(t, gotSS, 40, 60)
			live = canonDigest(t, wantSS)
		}
		if err := wantSS.CloseWALs(); err != nil {
			t.Fatal(err)
		}
		if err := gotSS.CloseWALs(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverLegacyJSONSnapshot: a JSON compaction snapshot followed by
// binary segments, and a JSON snapshot followed by JSON and then binary
// segments, recover to the state that was written, as the binary files
// they stand for do.
func TestRecoverLegacyJSONSnapshot(t *testing.T) {
	opts := compactOpts(t)
	st, w, _, err := Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, _, err := st.AppendDurable(legacyRecord(i), fmt.Sprintf("cid-%d", i%3), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := st.PutValueDurable(fmt.Sprintf("h%02d", i), []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 50; i++ {
		if _, _, err := st.AppendDurable(legacyRecord(i), fmt.Sprintf("cid-%d", i%3), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	live := indexDigest(t, st)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want several post-snapshot segments, got %d (%v)", len(segs), err)
	}

	recoverState := func(dir string) (string, map[string]uint64) {
		o := opts
		o.Dir = dir
		st, w, stats, err := Recover(o)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if stats.SnapshotSeg == 0 {
			t.Fatal("snapshot not loaded")
		}
		seqs := map[string]uint64{}
		for c := 0; c < 3; c++ {
			cid := fmt.Sprintf("cid-%d", c)
			seqs[cid], _ = st.LastSeq(cid)
		}
		return indexDigest(t, st), seqs
	}
	cases := map[string]int{
		"snapshot only":          0,
		"snapshot and a segment": segs[0].n,
	}
	for name, maxSeg := range cases {
		bin := filepath.Join(t.TempDir(), "bin")
		legacy := filepath.Join(t.TempDir(), "legacy")
		copyTree(t, opts.Dir, bin)
		copyTree(t, opts.Dir, legacy)
		transcodeDir(t, legacy, maxSeg)
		wantDigest, wantSeqs := recoverState(bin)
		gotDigest, gotSeqs := recoverState(legacy)
		if wantDigest != live || gotDigest != live {
			t.Fatalf("%s: recovered state differs from what was written (binary ok: %v, legacy ok: %v)", name, wantDigest == live, gotDigest == live)
		}
		if fmt.Sprint(gotSeqs) != fmt.Sprint(wantSeqs) {
			t.Fatalf("%s: seq table %v, want %v", name, gotSeqs, wantSeqs)
		}
		if !strings.Contains(wantDigest, "+01:00") {
			t.Fatalf("%s: fixture lost its non-UTC timestamps", name)
		}
	}
}
