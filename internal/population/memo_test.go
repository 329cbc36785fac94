package population

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"fpdyn/internal/canvas"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fontdb"
	"fpdyn/internal/geoip"
	"fpdyn/internal/useragent"
)

// TestRenderCacheMatchesRender: every entry a simulation run leaves in
// its render cache holds exactly canvas.Render(p) / canvas.RenderGPU(g)
// and that image's hash, and every record's image hashes resolve to
// cached images in the dataset's store.
func TestRenderCacheMatchesRender(t *testing.T) {
	cfg := DefaultConfig(600)
	cfg.Seed = 23
	ds := Simulate(cfg)
	rc := ds.renders
	if len(rc.canvas) == 0 || len(rc.gpu) == 0 {
		t.Fatalf("render cache is empty: %d canvases, %d GPU images", len(rc.canvas), len(rc.gpu))
	}
	check := func(what string, r renderedImage, want *canvas.Image) {
		t.Helper()
		if r.img.Pix != want.Pix {
			t.Fatalf("%s: cached pixels differ from a fresh render", what)
		}
		if r.hash != want.Hash() {
			t.Fatalf("%s: cached hash %s, fresh render hashes to %s", what, r.hash, want.Hash())
		}
	}
	for p, r := range rc.canvas {
		check("canvas", r, canvas.Render(p))
	}
	for g, r := range rc.gpu {
		check("gpu", r, canvas.RenderGPU(g))
	}
	for _, rec := range ds.Records {
		for _, h := range []string{rec.FP.CanvasHash, rec.FP.GPUImageHash} {
			if ds.CanvasImages[h] == nil {
				t.Fatalf("record image hash %s missing from the image store", h)
			}
		}
	}
}

// TestRenderCacheConcurrent hammers one cache from several goroutines
// over overlapping keys (run under -race by make check): every lookup
// returns the fresh render, and each key is stored once.
func TestRenderCacheConcurrent(t *testing.T) {
	rc := newRenderCache()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := canvas.Params{TextEngine: (i + w) % 7, TextWidth: i % 3, EmojiMajor: 1, EmojiMinor: i % 2}
				if got := rc.canvasImage(p); got.hash != canvas.RenderHash(p) {
					t.Errorf("canvas %+v: hash %s, want %s", p, got.hash, canvas.RenderHash(p))
					return
				}
				g := gpuPool[(i+w)%len(gpuPool)]
				if got := rc.gpuImage(g); got.hash != canvas.RenderGPU(g).Hash() {
					t.Errorf("gpu %+v: wrong cached hash", g)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(rc.canvas) != 7*3*2 || len(rc.gpu) != len(gpuPool) {
		t.Fatalf("cache holds %d canvases and %d GPU images, want %d and %d",
			len(rc.canvas), len(rc.gpu), 7*3*2, len(gpuPool))
	}
}

// uncachedFonts is the device font list computed from its components
// on every call: the oracle for the memoized device.fonts.
func uncachedFonts(dv *device) []string {
	out := append([]string(nil), dv.baseFonts...)
	if dv.office {
		out = fingerprint.AddFonts(out, fontdb.OfficeDetect)
		if !dv.officeUpd {
			out = fingerprint.RemoveFonts(out, []string{fontdb.MTExtra})
		}
	} else if dv.officeUpd {
		out = fingerprint.AddFonts(out, []string{fontdb.MTExtra})
	}
	if dv.adobe {
		out = fingerprint.AddFonts(out, fontdb.Adobe)
	}
	if dv.libre {
		out = fingerprint.AddFonts(out, fontdb.LibreOffice)
	}
	if dv.wps {
		out = fingerprint.AddFonts(out, fontdb.WPS)
	}
	return out
}

// uncachedVisibleFonts is the oracle for instance.visibleFonts.
func uncachedVisibleFonts(in *instance) []string {
	fonts := uncachedFonts(in.dev)
	if in.family == useragent.Firefox && in.version.Compare(useragent.V(57)) < 0 {
		fonts = fingerprint.RemoveFonts(fonts, fontdb.Firefox57)
	}
	return fonts
}

// fontDelta describes how got differs from want.
func fontDelta(got, want []string) string {
	missing, extra := fingerprint.RemoveFonts(want, got), fingerprint.RemoveFonts(got, want)
	return fmt.Sprintf("%d vs %d fonts, missing %v, extra %v", len(got), len(want), missing, extra)
}

// TestFontMemoTracksDeviceEvents replays a world's visit timeline —
// device schedules applied and browser updates adopted in time order,
// as the simulator does — and checks at every visit that the memoized
// font list equals the uncached computation and the font list the
// simulator recorded for that visit. The world must include Office
// installs and updates, Adobe, LibreOffice and WPS installs observed
// between two visits, and Firefox < 57 visits, so that every memo key
// transition is exercised.
func TestFontMemoTracksDeviceEvents(t *testing.T) {
	cfg := DefaultConfig(10000)
	cfg.Seed = 17
	ds := Simulate(cfg)
	type visit struct{ serial, k int }
	recorded := make(map[visit][]string, len(ds.Records))
	for i, r := range ds.Records {
		recorded[visit{ds.TrueInstance[i], ds.VisitIndex[i]}] = r.FP.Fonts
	}

	// A second, identical world, walked by hand.
	rng := rand.New(rand.NewSource(cfg.Seed))
	geo := geoip.New(cfg.Cities)
	var instances []*instance
	devSerial := 0
	for u := 0; u < cfg.Users; u++ {
		ins, devs := buildUser(rng, cfg, geo, u, len(instances), devSerial)
		instances = append(instances, ins...)
		devSerial += len(devs)
	}
	type ref struct {
		in *instance
		k  int
		t  time.Time
	}
	var timeline []ref
	for _, in := range instances {
		for k, at := range in.visits {
			timeline = append(timeline, ref{in, k, at})
		}
	}
	sort.Slice(timeline, func(i, j int) bool {
		if !timeline[i].t.Equal(timeline[j].t) {
			return timeline[i].t.Before(timeline[j].t)
		}
		return timeline[i].in.serial < timeline[j].in.serial
	})

	seen := map[EventType]int{}
	preFF57 := 0
	prev := make(map[*instance]time.Time)
	for _, v := range timeline {
		in := v.in
		in.dev.applyUntil(v.t)
		if from, ok := prev[in]; ok {
			in.advance(from, v.t)
			for _, ch := range in.dev.changesBetween(from, v.t) {
				seen[ch.kind]++
			}
		} else {
			in.advance(v.t, v.t)
		}
		prev[in] = v.t
		if in.family == useragent.Firefox && in.version.Compare(useragent.V(57)) < 0 {
			preFF57++
		}

		want := uncachedVisibleFonts(in)
		if got := in.visibleFonts(); !slices.Equal(got, want) {
			t.Fatalf("instance %d visit %d: memoized fonts differ from uncached: %s", in.serial, v.k, fontDelta(got, want))
		}
		if got, ok := recorded[visit{in.serial, v.k}]; !ok {
			t.Fatalf("instance %d visit %d: no record", in.serial, v.k)
		} else if !slices.Equal(got, want) {
			t.Fatalf("instance %d visit %d: recorded fonts differ from uncached: %s", in.serial, v.k, fontDelta(got, want))
		}
	}
	for _, ev := range []EventType{EvOfficeInstall, EvOfficeUpdate, EvAdobeInstall, EvLibreInstall, EvWPSInstall} {
		if seen[ev] == 0 {
			t.Errorf("no %s event between two visits: the world does not exercise that memo transition", ev)
		}
	}
	if preFF57 == 0 {
		t.Error("no Firefox < 57 visit in the world")
	}
	t.Logf("font events between visits: %v; Firefox < 57 visits: %d", seen, preFF57)
}
