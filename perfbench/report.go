package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fpdyn/internal/dynamics"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/obs"
	"fpdyn/internal/population"
	"fpdyn/internal/report"
	"fpdyn/internal/storage"
)

// ioClock accumulates the time spent in spill file calls and in the
// spilled record stream's iterator, keyed by the pipeline stage that
// made them.
type ioClock struct {
	mu    sync.Mutex
	write map[string]time.Duration
	read  map[string]time.Duration
	iters int
}

func newIOClock() *ioClock {
	return &ioClock{write: map[string]time.Duration{}, read: map[string]time.Duration{}}
}

func (c *ioClock) add(m map[string]time.Duration, stage string, d time.Duration) {
	c.mu.Lock()
	m[stage] += d
	c.mu.Unlock()
}

// timedFile times every call on a spill run file.
type timedFile struct {
	f     storage.SegmentFile
	c     *ioClock
	stage string
}

func (t timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.f.Write(p)
	t.c.add(t.c.write, t.stage, time.Since(t0))
	return n, err
}

func (t timedFile) Sync() error {
	t0 := time.Now()
	err := t.f.Sync()
	t.c.add(t.c.write, t.stage, time.Since(t0))
	return err
}

func (t timedFile) Close() error {
	t0 := time.Now()
	err := t.f.Close()
	t.c.add(t.c.write, t.stage, time.Since(t0))
	return err
}

// opener returns an OpenFile hook whose files charge their time to
// stage: the simulation's runs are all written while simulating, the
// regroup sort's runs all while regrouping.
func (c *ioClock) opener(stage string) func(string) (storage.SegmentFile, error) {
	return func(path string) (storage.SegmentFile, error) {
		t0 := time.Now()
		f, err := os.Create(path)
		c.add(c.write, stage, time.Since(t0))
		if err != nil {
			return nil, err
		}
		return timedFile{f: f, c: c, stage: stage}, nil
	}
}

// source wraps src so its iterators are timed. NewStream opens the
// source twice: once for the ground-truth pass, once for the regroup.
func (c *ioClock) source(src report.RecordSource) report.RecordSource {
	return func() (report.RecordIter, error) {
		c.mu.Lock()
		stage := "regroup"
		if c.iters == 0 {
			stage = "ground_truth"
		}
		c.iters++
		c.mu.Unlock()
		t0 := time.Now()
		it, err := src()
		c.add(c.read, stage, time.Since(t0))
		if err != nil {
			return nil, err
		}
		return timedIter{it: it, c: c, stage: stage}, nil
	}
}

// timedIter times the spilled record stream's iterator.
type timedIter struct {
	it    report.RecordIter
	c     *ioClock
	stage string
}

func (t timedIter) Next() (*fingerprint.Record, bool, error) {
	t0 := time.Now()
	r, ok, err := t.it.Next()
	t.c.add(t.c.read, t.stage, time.Since(t0))
	return r, ok, err
}

func (t timedIter) Close() error {
	t0 := time.Now()
	err := t.it.Close()
	t.c.add(t.c.read, t.stage, time.Since(t0))
	return err
}

// reportWindow is the number of consecutive reports whose slowest one
// is a window's tail.
const reportWindow = 4

// reportRep is one timed streamed report.
type reportRep struct {
	wall     time.Duration
	cpu      time.Duration
	render   time.Duration
	digest   [32]byte
	records  int
	timings  *obs.Timings
	io       *ioClock
	snapshot obs.Snapshot
}

// streamReport runs SimulateSpill → report.NewStream → Summary,
// Estimate, Table2 once. With traced set, the obs hooks, spill-file
// and iterator timing are on.
func streamReport(e *env, rep int, traced bool) (*reportRep, error) {
	cfg := e.spec.ReportStream
	pcfg := populationConfig(e.seed, cfg.Users)
	spill := filepath.Join(e.work, fmt.Sprintf("spill-%d", rep))
	r := &reportRep{}
	sopts := population.StreamOptions{SpillDir: spill, MemBudget: cfg.MemBudgetKiB << 10}
	ropts := report.StreamOptions{Workers: runtime.NumCPU(), ChunkSize: cfg.RegroupChunk}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		r.timings = &obs.Timings{}
		r.io = newIOClock()
		sopts.Registry, sopts.Timings, sopts.OpenFile = reg, r.timings, r.io.opener("simulate")
		ropts.Registry, ropts.Timings, ropts.OpenFile = reg, r.timings, r.io.opener("regroup")
	}
	var buf bytes.Buffer

	t0, c0 := time.Now(), processCPU()
	sd, err := population.SimulateSpill(pcfg, sopts)
	if err != nil {
		return nil, err
	}
	defer sd.Close()
	src := report.SpillSource(sd)
	if traced {
		src = r.io.source(src)
	}
	sr, err := report.NewStream(src, dynamics.MapImages(sd.CanvasImages), &buf, ropts)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	sr.Summary()
	sr.Estimate()
	sr.Table2()
	r.wall = time.Since(t0)
	r.cpu = processCPU() - c0
	r.render = time.Since(t1)
	r.digest = sha256.Sum256(buf.Bytes())
	r.records = sd.Records
	if reg != nil {
		r.snapshot = reg.Snapshot()
	}
	return r, nil
}

// spillInput runs the streamed report's input stage once: SimulateSpill
// of the run's population into sorted spilled runs, everything a report
// does before NewStream reads its first record. It returns the CPU time
// of that call; the runs are removed afterwards, untimed.
func spillInput(e *env, rep int) (time.Duration, error) {
	cfg := e.spec.ReportStream
	spill := filepath.Join(e.work, fmt.Sprintf("setup-%d", rep))
	runtime.GC()
	c0 := processCPU()
	sd, err := population.SimulateSpill(populationConfig(e.seed, cfg.Users), population.StreamOptions{SpillDir: spill, MemBudget: cfg.MemBudgetKiB << 10})
	cpu := processCPU() - c0
	if err != nil {
		return 0, err
	}
	if err := sd.Close(); err != nil {
		return 0, err
	}
	return cpu, os.RemoveAll(spill)
}

// referenceReport renders Summary, Estimate and Table2 with the
// in-memory report.Reporter for the same seed.
func referenceReport(e *env) ([32]byte, error) {
	ds := population.Simulate(populationConfig(e.seed, e.spec.ReportStream.Users))
	var buf bytes.Buffer
	r := report.NewWorkers(ds, &buf, runtime.NumCPU())
	r.Summary()
	r.Estimate()
	r.Table2()
	return sha256.Sum256(buf.Bytes()), nil
}

func runReportStream(e *env) (*outcome, error) {
	out := newOutcome()
	if e.probe {
		_, err := streamReport(e, 0, false)
		return out, err
	}

	// Set-up: the streamed input made ready, repeated. The start of the
	// streamed path on its own (directories, sorters, the geo database)
	// takes under a millisecond, mostly file system calls whose CPU cost
	// doubled between runs minutes apart, so it is not measured alone.
	var setupS []float64
	for r := 0; r < e.spec.Setups; r++ {
		cpu, err := spillInput(e, r)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, cpu.Seconds())
	}
	out.raw["setup_s"] = setupS
	out.e2e["setup_s"] = median(setupS)

	// The in-memory reference the streamed output is checked against.
	want, err := referenceReport(e)
	if err != nil {
		return nil, err
	}

	// One untimed pass first, so the timed ones start warm.
	if _, err := streamReport(e, -1, false); err != nil {
		return nil, err
	}
	tr, err := startTrace(e)
	if err != nil {
		return nil, err
	}
	var reps []*reportRep
	start := time.Now()
	for len(reps) < e.spec.ReportStream.MinReps || time.Since(start).Seconds() < e.seconds {
		runtime.GC()
		rep, err := streamReport(e, len(reps), e.trace)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		out.attempted++
		if rep.digest != want {
			out.failed++
			out.fail("rep %d: streamed Summary/Estimate/Table2 differ from the in-memory report", len(reps)-1)
		}
	}
	if err := tr.stop(out.layers); err != nil {
		return nil, err
	}

	var walls, cpus []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds()*1e3)
		cpus = append(cpus, r.cpu.Seconds()*1e3)
	}
	out.raw["report_wall_ms"] = walls
	out.raw["report_cpu_ms"] = cpus
	// The median report, like the other workloads' per-operation cost;
	// a GC cycle or a scheduling burst lands in one report, not all.
	out.e2e["cpu_ms_per_op"] = median(cpus)
	out.layers["client.p50_ms"] = median(walls)
	out.layers["client.tail_ms"] = steadyTail(walls, reportWindow, 0)
	out.layers["traced.cpu_ms_per_op"] = out.e2e["cpu_ms_per_op"]

	if e.trace {
		reportLayers(out, reps)
	} else {
		mib, err := probePeakRSS(e)
		if err != nil {
			return nil, err
		}
		out.e2e["peak_rss_mib"] = mib
	}
	return out, nil
}

// reportLayers splits each traced rep's wall time into layers and
// reports the median of each across reps. The obs.Timings stages of
// SimulateSpill and NewStream, minus the spill I/O timed inside them,
// plus the I/O and the render, add up to the wall time; what is left
// is report.residual_frac.
func reportLayers(out *outcome, reps []*reportRep) {
	per := map[string][]float64{}
	for _, r := range reps {
		stage := map[string]float64{}
		for _, st := range r.timings.Stages() {
			stage[st.Stage] += st.Seconds
		}
		w, rd := r.io.write, r.io.read
		l := map[string]float64{
			"population.simulate_s":    stage["simulate_spill"] - w["simulate"].Seconds(),
			"browserid.ground_truth_s": stage["ground_truth_pass1"] - rd["ground_truth"].Seconds(),
			"report.regroup_s":         stage["regroup"] - rd["regroup"].Seconds() - w["regroup"].Seconds(),
			"dynamics.analyze_s":       stage["analyze"],
			"report.render_s":          r.render.Seconds(),
			"extsort.write_s":          (w["simulate"] + w["regroup"]).Seconds(),
			"extsort.read_s":           (rd["ground_truth"] + rd["regroup"]).Seconds(),
		}
		var sum float64
		for _, v := range l {
			sum += v
		}
		wall := r.wall.Seconds()
		l["report.wall_s"] = wall
		l["report.residual_frac"] = (wall - sum) / wall
		bytes := float64(sumCounterDelta(obs.Snapshot{}, r.snapshot, "extsort_spilled_bytes_total"))
		l["extsort.write_bytes"] = bytes
		l["extsort.runs"] = float64(sumCounterDelta(obs.Snapshot{}, r.snapshot, "extsort_runs_total"))
		l["population.records"] = float64(r.records)
		l["report.spill_bytes_per_record"] = bytes / float64(r.records)
		for k, v := range l {
			per[k] = append(per[k], v)
		}
	}
	for k, vs := range per {
		out.layers[k] = median(vs)
		out.raw["layer."+k] = vs
	}
}
