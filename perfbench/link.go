package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fpdyn/internal/fpstalker"
	"fpdyn/internal/linkd"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

func trainForest(l labelled) (*mlearn.Forest, error) {
	return fpstalker.TrainPairModel(l.recs, l.instances, mlearn.ForestConfig{Seed: 1, NumTrees: 15, MaxDepth: 8})
}

// serveLinkd starts a linkd server for svc on a loopback port. The
// returned stop closes the server and waits for its goroutines.
func serveLinkd(svc *linkd.Service) (addr string, stop func(), err error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := linkd.NewServer(svc)
	srv.Logf = log.New(os.Stderr, "", 0).Printf
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(lis)
	}()
	return lis.Addr().String(), func() { srv.Close(); <-done }, nil
}

func dialAll(addr string, n int) ([]*linkConn, error) {
	var conns []*linkConn
	for i := 0; i < n; i++ {
		c, err := dialLinkd(addr)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

// histDelta is the count and sum a histogram gained between two
// snapshots of the same registry.
func histDelta(before, after obs.Snapshot, key string) (count uint64, sum float64) {
	a, b := after.Histograms[key], before.Histograms[key]
	return a.Count - b.Count, a.Sum - b.Sum
}

// sumHistDelta adds histDelta over every series of one metric name
// (all label sets), e.g. the per-shard WAL histograms.
func sumHistDelta(before, after obs.Snapshot, name string) (count uint64, sum float64) {
	for key, a := range after.Histograms {
		if key == name || (len(key) > len(name) && key[:len(name)+1] == name+"{") {
			b := before.Histograms[key]
			count += a.Count - b.Count
			sum += a.Sum - b.Sum
		}
	}
	return count, sum
}

func sumCounterDelta(before, after obs.Snapshot, name string) int64 {
	var n int64
	for key, a := range after.Counters {
		if key == name || (len(key) > len(name) && key[:len(name)+1] == name+"{") {
			n += a - before.Counters[key]
		}
	}
	return n
}

// rungResult is one rate of an open-loop ladder.
type rungResult struct {
	rate      float64
	lat       latencies
	late      []float64
	serverSec float64 // server-side busy time the rung's operations reported
	cpuMS     float64 // process CPU time per operation
	pass      bool
}

// ladderPlan orders the rungs of an open-loop ladder: every rung runs
// in increasing rate, the nominal rung gets nominalShare of the
// measured seconds and the others share the rest, and the ladder stops
// after the first failing rung above the nominal one.
func ladderPlan(ladder []float64, nominal, seconds, nominalShare float64) []time.Duration {
	durs := make([]time.Duration, len(ladder))
	other := (1 - nominalShare) * seconds / float64(len(ladder)-1)
	for i, r := range ladder {
		s := other
		if r == nominal {
			s = nominalShare * seconds
		}
		durs[i] = time.Duration(s * float64(time.Second))
	}
	return durs
}

// rungPasses applies the capacity rule: at most 1% failures, the tail
// within the latency limit, and no growing backlog.
func rungPasses(r *rungResult, limitMS float64) bool {
	if r.lat.n() == 0 {
		return false
	}
	_, tail, _ := r.lat.summary(limitMS)
	return float64(r.lat.failed) <= 0.01*float64(r.lat.n()) && tail <= limitMS && !r.lat.growing(limitMS)
}

func runLinkQuery(e *env) (*outcome, error) {
	cfg := e.spec.LinkQuery
	limit := e.spec.LatencyLimitsMS.Query
	in := makeLinkSplit(e.seed, cfg.Users, cfg.TrainUsers, cfg.TableFrac)
	out := newOutcome()
	if e.probe {
		resetPeakRSS()
	}

	// Set-up: forest training plus the table build through Service.Add,
	// repeated; the last build serves the run.
	setups := e.spec.Setups
	if e.probe {
		setups = 1
	}
	var svc *linkd.Service
	var forest *mlearn.Forest
	var setupS []float64
	var heapGrowth int64
	for r := 0; r < setups; r++ {
		if svc != nil {
			svc.Close()
			svc = nil
		}
		runtime.GC()
		c0 := processCPU()
		f, err := trainForest(in.train)
		if err != nil {
			return nil, err
		}
		s, _, err := linkd.Open(linkd.Options{Rule: fpstalker.NewRuleLinker(), Learn: fpstalker.NewLearnLinker(f)})
		if err != nil {
			return nil, err
		}
		trained := processCPU() - c0
		m0 := settledHeap()
		c1 := processCPU()
		for i, rec := range in.tableRecs {
			if err := s.Add(in.tableIDs[i], rec); err != nil {
				return nil, err
			}
		}
		setupS = append(setupS, (trained + processCPU() - c1).Seconds())
		heapGrowth = int64(settledHeap()) - int64(m0)
		svc, forest = s, f
	}
	defer svc.Close()
	out.raw["setup_s"] = setupS
	out.e2e["setup_s"] = median(setupS)
	entries := svc.Len()
	out.layers["fpstalker.bytes_per_entry"] = float64(heapGrowth) / float64(entries)

	// Only the queries are needed from here on: drop the training and
	// table records so the benchmark's own inputs do not inflate the
	// heap the server's garbage collector has to mark.
	in.train, in.tableRecs, in.tableIDs = labelled{}, nil, nil

	frames := make([][]byte, len(in.queries))
	for i, q := range in.queries {
		frames[i] = encodeFrame(&linkd.Request{Type: linkd.TypeQuery, Record: q, K: cfg.K, DeadlineMS: cfg.DeadlineMS})
	}

	addr, stop, err := serveLinkd(svc)
	if err != nil {
		return nil, err
	}
	defer stop()
	conns, err := dialAll(addr, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()

	ladder, durs := cfg.Ladder, ladderPlan(cfg.Ladder, cfg.Nominal, e.seconds, e.spec.NominalShare)
	if e.probe {
		ladder, durs = []float64{cfg.Nominal}, []time.Duration{time.Second}
	}
	tr, err := startTrace(e)
	if err != nil {
		return nil, err
	}
	shedBefore := svc.Metrics().Snapshot()
	cursor := 0
	var rungs []*rungResult
	var nominal *rungResult
	var nominalQueries []int
	var nominalReplies []linkReply
	for ri, rate := range ladder {
		rng := rand.New(rand.NewSource(e.seed*7919 + int64(ri)))
		arrivals := poissonArrivals(rng, rate, durs[ri])
		perConn := make([][]linkOp, len(conns))
		perQuery := make([][]int, len(conns))
		for j, due := range arrivals {
			q := in.queryOrder[cursor%len(in.queryOrder)]
			cursor++
			c := j % len(conns)
			perConn[c] = append(perConn[c], linkOp{due: due, frame: frames[q]})
			perQuery[c] = append(perQuery[c], q)
		}
		runtime.GC()
		before, cpu0 := svc.Metrics().Snapshot(), processCPU()
		replies, late := runOnConns(conns, perConn)
		after := svc.Metrics().Snapshot()

		rr := &rungResult{rate: rate, cpuMS: cpuMSPerOp(cpu0, len(arrivals))}
		// Latencies in schedule order, so growing() sees time order.
		type opRef struct{ c, k int }
		order := make([]opRef, 0, len(arrivals))
		for j := range arrivals {
			order = append(order, opRef{j % len(conns), j / len(conns)})
		}
		for _, o := range order {
			r := replies[o.c][o.k]
			op := perConn[o.c][o.k]
			if replyOK(r, linkd.TypeResult) {
				rr.lat.ok(r.done - op.due)
				if r.resp.Mode != linkd.ModeLearning {
					out.fail("query answered in %q mode", r.resp.Mode)
				}
			} else {
				rr.lat.fail()
			}
		}
		for _, l := range late {
			rr.late = append(rr.late, l...)
		}
		_, rr.serverSec = histDelta(before, after, "linkd_query_seconds")
		rr.pass = rungPasses(rr, limit)
		rungs = append(rungs, rr)
		if rate == cfg.Nominal {
			nominal = rr
			for _, o := range order {
				nominalQueries = append(nominalQueries, perQuery[o.c][o.k])
				nominalReplies = append(nominalReplies, replies[o.c][o.k])
			}
		}
		if !rr.pass && rate > cfg.Nominal {
			break
		}
	}
	shedAfter := svc.Metrics().Snapshot()
	if err := tr.stop(out.layers); err != nil {
		return nil, err
	}
	if e.probe {
		return out, nil
	}
	if nominal == nil {
		return nil, fmt.Errorf("ladder %v has no nominal rung %v", cfg.Ladder, cfg.Nominal)
	}

	// The reference: an identical table built directly on the learning
	// linker, for the ranking check and the direct layer timings. It is
	// built after the measured phase, from the table records made again
	// from the seed, so neither it nor its inputs are on the server's
	// heap while the ladder runs.
	again := makeLinkSplit(e.seed, cfg.Users, cfg.TrainUsers, cfg.TableFrac)
	ref := fpstalker.NewLearnLinker(forest)
	var addUS []float64
	for i, rec := range again.tableRecs {
		t0 := time.Now()
		ref.Add(again.tableIDs[i], rec)
		addUS = append(addUS, float64(time.Since(t0))/1e3)
	}
	st := ref.StoreStats()
	if n := st.InternHits + st.InternMisses; n > 0 {
		out.layers["fpstalker.intern_hit_rate"] = float64(st.InternHits) / float64(n)
	}
	out.layers["fpstalker.add_us_p50"] = median(addUS)
	out.layers["fpstalker.add_us_p99"] = quantile(sortedCopy(addUS), 0.99)
	if ref.Len() != entries {
		out.fail("reference table has %d entries, the served one %d", ref.Len(), entries)
	}

	p50, tail, q := nominal.lat.summary(limit)
	out.e2e["cpu_ms_per_op"] = nominal.cpuMS
	out.layers["client.p50_ms"] = p50
	out.layers["client.tail_ms"] = steadyTail(nominal.lat.ms, opWindow, limit)
	out.layers["client.p99_ms"] = tail
	out.raw["tail_quantile"] = []float64{q}
	out.raw["nominal_latency_ms"] = nominal.lat.ms
	out.attempted, out.failed = int64(nominal.lat.n()), nominal.lat.failed
	if nominal.lat.failed > 0 {
		out.fail("%d of %d queries failed at the nominal rung", nominal.lat.failed, nominal.lat.n())
	}
	lateP99 := quantile(sortedCopy(nominal.late), 0.99)
	if lateP99 > limit/4 {
		out.fail("load generator fell behind: late p99 %.2f ms", lateP99)
	}
	out.layers["loadgen.late_ms_p99"] = lateP99
	out.layers["client.query_ms_p50"] = p50
	out.layers["client.query_ms_p99"] = tail
	out.layers["traced.cpu_ms_per_op"] = nominal.cpuMS
	out.layers["linkd.server_ms_mean"] = 1e3 * nominal.serverSec / float64(nominal.lat.n())
	low := rungs[0]
	lowP50, _, _ := low.lat.summary(limit)
	out.layers["wire.overhead_ms_p50"] = lowP50 - 1e3*low.serverSec/float64(low.lat.n())
	out.layers["linkd.shed"] = float64(shedAfter.Counters[`linkd_queries_total{outcome="shed"}`] - shedBefore.Counters[`linkd_queries_total{outcome="shed"}`])
	out.layers["linkd.expired"] = float64(shedAfter.Counters[`linkd_queries_total{outcome="expired"}`] - shedBefore.Counters[`linkd_queries_total{outcome="expired"}`])
	for _, rr := range rungs {
		rp50, rtail, _ := rr.lat.summary(limit)
		out.raw[fmt.Sprintf("rung_%g_p50_ms", rr.rate)] = []float64{rp50}
		out.raw[fmt.Sprintf("rung_%g_tail_ms", rr.rate)] = []float64{rtail}
		if !rr.pass {
			break
		}
		out.layers["linkd.max_qps"] = rr.rate
	}

	// Correctness: a sample of served rankings equals direct TopK on
	// the identical table, and F1 follows fpstalker.Evaluate's rules.
	checked := map[int]bool{}
	for i, q := range nominalQueries {
		if len(checked) >= cfg.CheckSample {
			break
		}
		r := nominalReplies[i]
		if checked[q] || !replyOK(r, linkd.TypeResult) {
			continue
		}
		checked[q] = true
		if want := ref.TopK(in.queries[q], cfg.K); !sameRanking(r.resp.Candidates, want) {
			out.fail("query %d: served ranking %v differs from direct TopK %v", q, r.resp.Candidates, want)
		}
	}
	var conf mlearn.Confusion
	for i, q := range nominalQueries {
		r := nominalReplies[i]
		var cands []fpstalker.Candidate
		if replyOK(r, linkd.TypeResult) {
			cands = r.resp.Candidates
		}
		scoreLink(&conf, cands, in.queryInst[q], in.inTable[in.queryInst[q]])
	}
	out.layers["link.f1"] = conf.F1()

	if e.trace {
		ref.Workers = 1
		var topk []float64
		for _, q := range nominalQueries[:min(len(nominalQueries), 300)] {
			t0 := time.Now()
			if _, err := ref.TopKCtx(context.Background(), in.queries[q], cfg.K); err != nil {
				return nil, err
			}
			topk = append(topk, float64(time.Since(t0))/1e6)
		}
		out.layers["fpstalker.topk_ms_p50"] = median(topk)
		out.layers["fpstalker.topk_ms_p99"] = quantile(sortedCopy(topk), 0.99)
	} else {
		mib, err := probePeakRSS(e)
		if err != nil {
			return nil, err
		}
		out.e2e["peak_rss_mib"] = mib
	}
	return out, nil
}

// runOnConns runs one schedule per connection concurrently and returns
// the replies and generator lateness of each.
func runOnConns(conns []*linkConn, perConn [][]linkOp) ([][]linkReply, [][]float64) {
	replies := make([][]linkReply, len(conns))
	late := make([][]float64, len(conns))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], late[i] = runLinkSchedule(conns[i], start, perConn[i])
		}(i)
	}
	wg.Wait()
	return replies, late
}

// scoreLink applies fpstalker.Evaluate's confusion rules to one query:
// a known instance must be in the candidates, an unknown one must get
// none.
func scoreLink(c *mlearn.Confusion, cands []fpstalker.Candidate, inst int, known bool) {
	trueID := fpstalker.InstanceID(inst)
	if known {
		for _, cand := range cands {
			if cand.ID == trueID {
				c.TP++
				return
			}
		}
		c.FN++
		if len(cands) > 0 {
			c.FP++
		}
		return
	}
	if len(cands) == 0 {
		c.TN++
	} else {
		c.FP++
	}
}

func sameRanking(a, b []fpstalker.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func settledHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// replayClock is the link-replay service clock: wall time, except
// while the replay freezes it at a record-time boundary to run the
// collect-window evictor deterministically.
type replayClock struct{ frozen atomic.Int64 }

func (c *replayClock) now() time.Time {
	if f := c.frozen.Load(); f != 0 {
		return time.Unix(0, f).UTC()
	}
	return time.Now()
}

// evictAt runs svc's evictor with the clock frozen at t.
func (c *replayClock) evictAt(svc *linkd.Service, t time.Time) int {
	c.frozen.Store(t.UnixNano())
	defer c.frozen.Store(0)
	return svc.EvictExpired()
}

func runLinkReplay(e *env) (*outcome, error) {
	cfg := e.spec.LinkReplay
	limit := e.spec.LatencyLimitsMS.Query
	pop := simulate(e.seed, cfg.Users)
	train := simulate(trainSeed(e.seed), cfg.TrainUsers)
	seconds := e.seconds
	if e.probe {
		seconds = 1
		resetPeakRSS()
	}
	steps := min(len(pop.recs), int(cfg.StepsPerS*seconds))
	recs, insts := pop.recs[:steps], pop.instances[:steps]
	window := time.Duration(cfg.WindowDays) * 24 * time.Hour
	bounds := evictBoundaries(recs, time.Duration(cfg.EvictEveryDays)*24*time.Hour)
	// evictBefore[i] is the boundary to evict at before step i, if any:
	// the last boundary at or before recs[i].Time not yet evicted.
	evictBefore := make([]time.Time, steps)
	next := 0
	for i, r := range recs {
		for next < len(bounds) && !bounds[next].After(r.Time) {
			evictBefore[i] = bounds[next]
			next++
		}
	}
	out := newOutcome()

	// Set-up: forest training and opening the journaled service.
	setups := e.spec.Setups
	if e.probe {
		setups = 1
	}
	var svc *linkd.Service
	var forest *mlearn.Forest
	var setupS []float64
	clock := &replayClock{}
	walReg := obs.NewRegistry()
	for r := 0; r < setups; r++ {
		if svc != nil {
			svc.Close()
			svc = nil
		}
		dir := filepath.Join(e.work, fmt.Sprintf("journal-%d", r))
		runtime.GC()
		c0 := processCPU()
		f, err := trainForest(train)
		if err != nil {
			return nil, err
		}
		opts := linkd.Options{
			Rule: fpstalker.NewRuleLinker(), Learn: fpstalker.NewLearnLinker(f),
			WAL:    storage.WALOptions{Dir: dir, Policy: storage.SyncNever},
			Window: window, Clock: clock.now,
		}
		if r == setups-1 {
			opts.WAL.Registry = walReg
		}
		s, _, err := linkd.Open(opts)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (processCPU() - c0).Seconds())
		svc, forest = s, f
	}
	defer svc.Close()
	out.raw["setup_s"] = setupS
	out.e2e["setup_s"] = median(setupS)

	rng := rand.New(rand.NewSource(e.seed*7919 + 101))
	var ops []linkOp
	var t float64
	for i, rec := range recs {
		t += rng.ExpFloat64() / cfg.StepsPerS
		due := time.Duration(t * float64(time.Second))
		q := linkOp{due: due, frame: encodeFrame(&linkd.Request{Type: linkd.TypeQuery, Record: rec, K: cfg.K, DeadlineMS: cfg.DeadlineMS})}
		if b := evictBefore[i]; !b.IsZero() {
			q.before = func() { clock.evictAt(svc, b) }
		}
		ops = append(ops, q, linkOp{due: due, frame: encodeFrame(&linkd.Request{Type: linkd.TypeAdd, ID: fpstalker.InstanceID(insts[i]), Record: rec})})
	}

	addr, stop, err := serveLinkd(svc)
	if err != nil {
		return nil, err
	}
	defer stop()
	conns, err := dialAll(addr, 1)
	if err != nil {
		return nil, err
	}
	defer conns[0].Close()

	runtime.GC()
	tr, err := startTrace(e)
	if err != nil {
		return nil, err
	}
	before, walBefore, cpu0 := svc.Metrics().Snapshot(), walReg.Snapshot(), processCPU()
	replies, late := runOnConns(conns, [][]linkOp{ops})
	after, walAfter := svc.Metrics().Snapshot(), walReg.Snapshot()
	out.e2e["cpu_ms_per_op"] = cpuMSPerOp(cpu0, steps)
	if err := tr.stop(out.layers); err != nil {
		return nil, err
	}
	if e.probe {
		return out, nil
	}

	var step, query, add latencies
	var conf mlearn.Confusion
	seen := map[int]bool{}
	served := make([][]fpstalker.Candidate, steps)
	for i := 0; i < steps; i++ {
		qr, ar := replies[0][2*i], replies[0][2*i+1]
		due := ops[2*i].due
		qok, aok := replyOK(qr, linkd.TypeResult), replyOK(ar, linkd.TypeOK)
		if qok {
			query.ok(qr.done - due)
			served[i] = qr.resp.Candidates
			if qr.resp.Mode != linkd.ModeLearning {
				out.fail("step %d answered in %q mode", i, qr.resp.Mode)
			}
		} else {
			query.fail()
		}
		if qok && aok {
			add.ok(ar.done - qr.done)
			step.ok(ar.done - due)
		} else {
			add.fail()
			step.fail()
		}
		scoreLink(&conf, served[i], insts[i], seen[insts[i]])
		seen[insts[i]] = true
	}
	p50, tail, q := step.summary(limit)
	out.layers["client.p50_ms"] = p50
	out.layers["client.tail_ms"] = steadyTail(step.ms, opWindow, limit)
	out.layers["client.p99_ms"] = tail
	out.raw["tail_quantile"] = []float64{q}
	out.raw["step_latency_ms"] = step.ms
	out.attempted, out.failed = int64(steps), step.failed
	if step.failed > 0 {
		out.fail("%d of %d replay steps failed", step.failed, steps)
	}
	out.layers["traced.cpu_ms_per_op"] = out.e2e["cpu_ms_per_op"]
	out.layers["client.query_ms_p50"], out.layers["client.query_ms_p99"], _ = query.summary(limit)
	out.layers["client.add_ms_p50"], out.layers["client.add_ms_p99"], _ = add.summary(limit)
	var lateAll []float64
	for _, l := range late {
		lateAll = append(lateAll, l...)
	}
	lateP99 := quantile(sortedCopy(lateAll), 0.99)
	if lateP99 > limit/4 {
		out.fail("load generator fell behind: late p99 %.2f ms", lateP99)
	}
	out.layers["loadgen.late_ms_p99"] = lateP99
	out.layers["link.f1"] = conf.F1()
	nq, qsum := histDelta(before, after, "linkd_query_seconds")
	if nq > 0 {
		out.layers["linkd.server_ms_mean"] = 1e3 * qsum / float64(nq)
	}
	out.layers["linkd.evictions"] = float64(sumCounterDelta(before, after, "linkd_evictions_total"))
	out.layers["linkd.shed"] = float64(after.Counters[`linkd_queries_total{outcome="shed"}`] - before.Counters[`linkd_queries_total{outcome="shed"}`])
	out.layers["linkd.expired"] = float64(after.Counters[`linkd_queries_total{outcome="expired"}`] - before.Counters[`linkd_queries_total{outcome="expired"}`])
	walLayers(out.layers, walBefore, walAfter, steps)

	// Correctness: the same replay in process, on a journal-less
	// service with the same evictions, must rank every step the same
	// and end with the same index digests.
	refClock := &replayClock{}
	ref, _, err := linkd.Open(linkd.Options{
		Rule: fpstalker.NewRuleLinker(), Learn: fpstalker.NewLearnLinker(forest),
		Window: window, Clock: refClock.now,
	})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	for i, rec := range recs {
		if b := evictBefore[i]; !b.IsZero() {
			refClock.evictAt(ref, b)
		}
		cands, _, err := ref.Query(context.Background(), rec, cfg.K)
		if err != nil {
			return nil, err
		}
		if !sameRanking(served[i], cands) && replyOK(replies[0][2*i], linkd.TypeResult) {
			out.fail("step %d: served ranking differs from the in-process replay", i)
		}
		if err := ref.Add(fpstalker.InstanceID(insts[i]), rec); err != nil {
			return nil, err
		}
	}
	gotRule, gotLearn := svc.IndexDigests()
	wantRule, wantLearn := ref.IndexDigests()
	if gotRule != wantRule || gotLearn != wantLearn {
		out.fail("index digests differ from the in-process replay")
	}

	if e.trace {
		direct := fpstalker.NewLearnLinker(forest)
		direct.Workers = 1
		// The same steps in Evaluate order, without the evictions.
		var topk, addUS []float64
		for i, rec := range recs {
			t0 := time.Now()
			if _, err := direct.TopKCtx(context.Background(), rec, cfg.K); err != nil {
				return nil, err
			}
			t1 := time.Now()
			direct.Add(fpstalker.InstanceID(insts[i]), rec)
			topk = append(topk, float64(t1.Sub(t0))/1e6)
			addUS = append(addUS, float64(time.Since(t1))/1e3)
		}
		out.layers["fpstalker.topk_ms_p50"] = median(topk)
		out.layers["fpstalker.topk_ms_p99"] = quantile(sortedCopy(topk), 0.99)
		out.layers["fpstalker.add_us_p50"] = median(addUS)
		out.layers["fpstalker.add_us_p99"] = quantile(sortedCopy(addUS), 0.99)
		st := direct.StoreStats()
		if n := st.InternHits + st.InternMisses; n > 0 {
			out.layers["fpstalker.intern_hit_rate"] = float64(st.InternHits) / float64(n)
		}
	} else {
		mib, err := probePeakRSS(e)
		if err != nil {
			return nil, err
		}
		out.e2e["peak_rss_mib"] = mib
	}
	return out, nil
}

// walLayers derives the storage.* layer metrics from WAL registry
// snapshots taken around the measured phase; records is the number of
// operations the appends served.
func walLayers(layers map[string]float64, before, after obs.Snapshot, records int) {
	nf, fsum := sumHistDelta(before, after, "wal_fsync_seconds")
	na, asum := sumHistDelta(before, after, "wal_append_seconds")
	layers["storage.fsync_count"] = float64(nf)
	if nf > 0 {
		layers["storage.fsync_ms_mean"] = 1e3 * fsum / float64(nf)
	}
	if na > 0 {
		layers["storage.append_ms_mean"] = 1e3 * asum / float64(na)
	}
	if records > 0 {
		layers["storage.bytes_per_record"] = float64(sumCounterDelta(before, after, "wal_bytes_written_total")) / float64(records)
	}
}
