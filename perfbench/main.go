// Command perfbench is the repository benchmark. It runs one named
// workload against the public entry points of population/report,
// linkd and collector/storage, checks the workload's output for
// correctness, and prints one JSON result line as the last line of
// standard output. README.md lists the workloads and metrics; SPEC.json
// holds the sizes, rate ladders and latency limits.
//
//	go build -o .bench_build/perfbench ./perfbench   (from perfbench/)
//	.bench_build/perfbench --workload link-query --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 the workload runs with its layer hooks
// on and the result carries the per-layer metrics.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

//go:embed SPEC.json
var specJSON []byte

type specConfig struct {
	LatencyLimitsMS struct {
		Query float64 `json:"query"`
		Ack   float64 `json:"ack"`
	} `json:"latency_limits_ms"`
	HeldOutSeed  int64   `json:"held_out_seed"`
	Setups       int     `json:"setups"`
	NominalShare float64 `json:"nominal_share"`
	ReportStream struct {
		Users        int   `json:"users"`
		MemBudgetKiB int64 `json:"mem_budget_kib"`
		RegroupChunk int   `json:"regroup_chunk"`
		MinReps      int   `json:"min_reps"`
	} `json:"report_stream"`
	LinkQuery struct {
		Users       int       `json:"users"`
		TrainUsers  int       `json:"train_users"`
		TableFrac   float64   `json:"table_frac"`
		K           int       `json:"k"`
		DeadlineMS  int64     `json:"deadline_ms"`
		Ladder      []float64 `json:"ladder_per_s"`
		Nominal     float64   `json:"nominal_per_s"`
		CheckSample int       `json:"check_sample"`
	} `json:"link_query"`
	LinkReplay struct {
		Users          int     `json:"users"`
		TrainUsers     int     `json:"train_users"`
		K              int     `json:"k"`
		DeadlineMS     int64   `json:"deadline_ms"`
		StepsPerS      float64 `json:"steps_per_s"`
		WindowDays     int     `json:"window_days"`
		EvictEveryDays int     `json:"evict_every_days"`
	} `json:"link_replay"`
	Ingest struct {
		Users      int       `json:"users"`
		Shards     int       `json:"shards"`
		MaxBatch   int       `json:"max_batch"`
		StoreOpens int       `json:"store_opens"`
		Ladder     []float64 `json:"ladder_per_s"`
		Nominal    float64   `json:"nominal_per_s"`
	} `json:"ingest"`
}

func loadSpec() (*specConfig, error) {
	var doc struct {
		Config specConfig `json:"config"`
	}
	if err := json.Unmarshal(specJSON, &doc); err != nil {
		return nil, fmt.Errorf("SPEC.json: %w", err)
	}
	return &doc.Config, nil
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchDoc is the part of BENCHMARK.json the binary reads: the metric
// names and units it must print, so the two cannot drift apart.
type benchDoc struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchDoc(path string) (*benchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// env is what every workload receives.
type env struct {
	spec    *specConfig
	seed    int64
	seconds float64
	trace   bool
	probe   bool   // one short pass for the peak-RSS probe
	work    string // scratch directory owned by this run
	self    string // this executable, for the peak-RSS probe
	name    string
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int64
	problems          []string // correctness failures; empty means correct
	e2e               map[string]float64
	layers            map[string]float64
	raw               map[string][]float64 // every raw sample, for the stamp file
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, raw: map[string][]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) (*outcome, error){
	"report-stream": runReportStream,
	"link-query":    runLinkQuery,
	"link-replay":   runLinkReplay,
	"ingest":        runIngest,
}

func main() {
	workload := flag.String("workload", "", "report-stream | link-query | link-replay | ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	probe := flag.Bool("probe-rss", false, "run one short pass and print the peak RSS in MiB (used by the peak_rss_mib metric)")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace == 1, *probe, "BENCHMARK.json", filepath.Join(".bench_build", "work")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace, probe bool, benchPath, workRoot string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if seed == spec.HeldOutSeed && os.Getenv("PERFBENCH_HELD_OUT") != "1" {
		return fmt.Errorf("seed %d is held out for checking later claims; set PERFBENCH_HELD_OUT=1 to use it", seed)
	}
	doc, err := loadBenchDoc(benchPath)
	if err != nil && !probe {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(workRoot, workload+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{spec: spec, seed: seed, seconds: seconds, trace: trace, probe: probe, work: work, self: self, name: workload}
	steal0, t0 := hostSteal(), time.Now()
	out, err := fn(e)
	if err != nil {
		return err
	}
	// The share of this machine's CPU time the hypervisor gave to other
	// guests while the run lasted: a run on a contended host reads slow.
	out.layers["host.steal_frac"] = (hostSteal() - steal0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	if probe {
		fmt.Printf("%.4f\n", peakRSSMiB())
		return nil
	}

	stamp := newStamp(workload, seed, seconds, trace)
	if err := writeResultFile(workRoot, stamp, out); err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	stampLine, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", stampLine)

	defs, values := doc.EndToEnd, out.e2e
	if trace {
		defs, values = doc.PerLayer, out.layers
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok && !trace {
			return fmt.Errorf("workload %s did not measure %s", workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(out.problems) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// stamp identifies what produced a result. The benchmark runs from a
// plain source tree, so the code is identified by a digest of its Go
// sources rather than a commit.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Time       string  `json:"time"`
}

func newStamp(workload string, seed int64, seconds float64, trace bool) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Commit:     gitCommit(),
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads HEAD from a .git directory when there is one; a
// plain source tree reports "unknown" and relies on source_sha256.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(r)))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

// sourceHash digests every go.mod and .go file under root, skipping
// build output and VCS directories, in path order.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "SPEC.json") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeResultFile keeps the stamp, every metric and every raw sample
// of this run under <workRoot>/../results, one file per run.
func writeResultFile(workRoot string, st stamp, out *outcome) error {
	dir := filepath.Join(filepath.Dir(workRoot), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"stamp":     st,
		"correct":   len(out.problems) == 0,
		"problems":  out.problems,
		"attempted": out.attempted,
		"failed":    out.failed,
		"e2e":       out.e2e,
		"layers":    out.layers,
		"raw":       out.raw,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if st.Trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s-%d.json", st.Workload, st.Seed, mode, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// peakRSSMiB reads the resident high-water mark of this process.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS drops the garbage the benchmark's own input generation
// left and restarts the resident high-water mark, so a --probe-rss
// pass measures the workload, not the generator (Linux 4.0+; elsewhere
// the mark is left as it is).
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: the probe then includes input generation
}

// probePeakRSS runs this workload once more in a fresh process with
// --probe-rss and returns the peak RSS that process reports.
func probePeakRSS(e *env) (float64, error) {
	cmd := exec.Command(e.self, "--workload", e.name, "--seed", fmt.Sprint(e.seed),
		"--seconds", fmt.Sprint(e.seconds), "--probe-rss")
	outb, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return 0, fmt.Errorf("peak-RSS probe: %v: %s", err, ee.Stderr)
		}
		return 0, fmt.Errorf("peak-RSS probe: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	var mib float64
	if _, err := fmt.Sscanf(lines[len(lines)-1], "%f", &mib); err != nil || mib <= 0 {
		return 0, fmt.Errorf("peak-RSS probe printed %q", lines[len(lines)-1])
	}
	return mib, nil
}

// hostSteal returns the CPU seconds stolen from this guest so far
// (the steal column of /proc/stat, in USER_HZ ticks of 1/100 s), or 0
// where it is not reported.
func hostSteal() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks float64
	fmt.Sscanf(f[8], "%g", &ticks)
	return ticks / 100
}
