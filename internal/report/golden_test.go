package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/population"
)

// TestGoldenStreamReport pins the bytes of the streamed report —
// SimulateSpill feeding NewStream, then Summary, Estimate and Table2 —
// for the serial (Workers 0) and sharded simulation paths. The
// stream-vs-memory equivalence tests pass whenever both sides change
// alike; this pin does not. The values were taken before the
// simulator's run-scoped render cache and font memo existed.
func TestGoldenStreamReport(t *testing.T) {
	for _, tc := range []struct {
		workers int
		want    string
	}{
		{0, "49d806d1c88df2816ecf4e4ad806162a6512eb1a39a73b3de1f86d17f6935a7d"},
		{2, "cf1fe2513129f99719fc116ff6b0e3d94bd77b0cba05bfd1299f82638f232128"},
	} {
		cfg := population.DefaultConfig(600)
		cfg.Seed = 9
		cfg.Workers = tc.workers
		sd, err := population.SimulateSpill(cfg, population.StreamOptions{UsersPerBatch: 64})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sr, err := NewStream(SpillSource(sd), dynamics.MapImages(sd.CanvasImages), &buf,
			StreamOptions{Workers: 2, SpillDir: sd.SpillRoot()})
		if err != nil {
			t.Fatal(err)
		}
		sr.Summary()
		sr.Estimate()
		sr.Table2()
		sd.Close()
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("workers=%d: streamed report digest %s, want %s\n%s", tc.workers, got, tc.want, buf.String())
		}
	}
}
