package population

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// datasetSHA256 is the golden-pin digest of a Dataset: a SHA-256 over
// every record's JSON, its ground truth, instance and visit index in
// record order, then both image stores (encoding/json writes map keys
// in sorted order, so the digest is a pure function of the content).
func datasetSHA256(t *testing.T, ds *Dataset) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, r := range ds.Records {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(ds.Truth[i]); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%d %d\n", ds.TrueInstance[i], ds.VisitIndex[i])
	}
	if err := enc.Encode(ds.CanvasImages); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(ds.GPUImageInfo); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSimulateDigest pins Simulate's full output — records,
// ground truth, canvas images and GPU info — for the legacy serial
// path (Workers 0) and the sharded path (Workers NumCPU, identical for
// every worker count). The path-vs-path equivalence tests cannot catch
// a change that hits every path the same way (a wrong memoized render
// or font list, say); these pins do. The values were taken before the
// run-scoped render cache and the font memo existed.
func TestGoldenSimulateDigest(t *testing.T) {
	for _, tc := range []struct {
		workers int
		want    string
	}{
		{0, "7d65a297dbc6702f1a0420772f81ddc4b6805547d2e94e5c8e83f7a10f6913e6"},
		{runtime.NumCPU(), "f4710f9830fc5cbefd423129b700cab85ef461db812dd654ff7df5ab791e6c4c"},
	} {
		cfg := DefaultConfig(1000)
		cfg.Seed = 5
		cfg.Workers = tc.workers
		if got := datasetSHA256(t, Simulate(cfg)); got != tc.want {
			t.Errorf("workers=%d: Simulate digest %s, want %s", tc.workers, got, tc.want)
		}
	}
}
