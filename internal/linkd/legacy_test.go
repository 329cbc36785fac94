package linkd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/storage"
)

// legacyJournalEntry is the JSON payload shape of the add journal and
// its snapshots before the binary codec.
type legacyJournalEntry struct {
	ID  string              `json:"id"`
	Rec *fingerprint.Record `json:"rec"`
}

// transcodeJournal rewrites the snapshots and the segments numbered up
// to maxSeg of a journal directory into legacy JSON payloads.
func transcodeJournal(t *testing.T, dir string, maxSeg int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range names {
		base := filepath.Base(path)
		var n int
		_, segErr := fmt.Sscanf(base, "wal-%08d.seg", &n)
		isSeg := segErr == nil && n <= maxSeg
		if !isSeg && !strings.HasPrefix(base, "snap-") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		var dec fingerprint.Decoder
		if _, err := storage.DecodeSegment(data, 0, func(payload []byte) error {
			e, err := decodeJournalEntry(&dec, payload)
			if err != nil || payload[0] == '{' {
				t.Fatalf("%s: not a binary journal payload (%v)", base, err)
			}
			js, err := json.Marshal(legacyJournalEntry{ID: e.ID, Rec: e.Rec})
			if err != nil {
				t.Fatal(err)
			}
			out = storage.AppendFrame(out, js)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func copyJournal(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestJournalReplayLegacyJSON: a journal whose snapshot and segments
// hold JSON payloads replays to the same index digests as the binary
// journal it was transcoded from — including once binary adds land in
// new segments after the JSON ones.
func TestJournalReplayLegacyJSON(t *testing.T) {
	forest, err := testForest()
	if err != nil {
		t.Fatalf("train forest: %v", err)
	}
	open := func(dir string) *Service {
		svc, _, err := Open(Options{
			Rule: fpstalker.NewRuleLinker(), Learn: fpstalker.NewLearnLinker(forest),
			WAL: storage.WALOptions{Dir: dir, Policy: storage.SyncNever}, MaxInFlight: 2,
		})
		if err != nil {
			t.Fatalf("open %s: %v", dir, err)
		}
		return svc
	}
	add := func(svc *Service, from, to int) {
		for i := from; i < to; i++ {
			at := tBase.Add(time.Duration(i) * time.Minute)
			if i%3 == 1 {
				at = at.In(time.FixedZone("", 2*3600))
			}
			if err := svc.Add(fmt.Sprintf("i%d", i%25), testRecord(i, at)); err != nil {
				t.Fatalf("add %d: %v", i, err)
			}
		}
	}

	bin := t.TempDir()
	svc := open(bin)
	add(svc, 0, 30)
	if _, err := svc.Compact(); err != nil {
		t.Fatal(err)
	}
	add(svc, 30, 45)
	liveRule, liveLearn := svc.IndexDigests()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	legacy := copyJournal(t, bin)
	transcodeJournal(t, legacy, 1<<30)
	for round := 0; round < 2; round++ {
		want, got := open(bin), open(legacy)
		wr, wl := want.IndexDigests()
		gr, gl := got.IndexDigests()
		if wr != liveRule || wl != liveLearn || gr != wr || gl != wl || got.Len() != want.Len() {
			t.Fatalf("round %d: replayed state differs from what was written (len legacy %d, binary %d)", round, got.Len(), want.Len())
		}
		if round == 0 {
			add(want, 45, 60)
			add(got, 45, 60)
			liveRule, liveLearn = want.IndexDigests()
		}
		want.Close()
		got.Close()
	}
}

// FuzzJournalReplay writes arbitrary bytes as a journal segment and
// opens a service over it: replay must never panic, and a service that
// opens must reopen — over the possibly truncated segment — to the
// same table.
func FuzzJournalReplay(f *testing.F) {
	rec := testRecord(1, tBase)
	legacy, _ := json.Marshal(legacyJournalEntry{ID: "i1", Rec: rec})
	bin := appendJournalEntry(nil, "i2", testRecord(2, tBase.Add(time.Minute)))
	f.Add(storage.AppendFrame(storage.AppendFrame(nil, legacy), bin))
	f.Add(storage.AppendFrame(nil, bin)[:20])
	f.Add(storage.AppendFrame(nil, []byte{journalAdd, 0, fingerprint.RecordVersion}))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Rule: fpstalker.NewRuleLinker(), WAL: storage.WALOptions{Dir: dir, Policy: storage.SyncNever}}
		svc, _, err := Open(opts)
		if err != nil {
			return // refused, not panicked
		}
		digest, n := svc.rule.IndexDigest(), svc.Len()
		svc.Close()
		opts.Rule = fpstalker.NewRuleLinker()
		re, stats, err := Open(opts)
		if err != nil {
			t.Fatalf("second replay failed: %v", err)
		}
		defer re.Close()
		if stats.Truncated || re.rule.IndexDigest() != digest || re.Len() != n {
			t.Fatalf("replay not idempotent: %d→%d entries, stats %+v", n, re.Len(), stats)
		}
	})
}
