package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fpdyn/internal/collector"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/obs"
	"fpdyn/internal/storage"
)

// ingestConn is one collection connection's share of a rung: records
// in due order, each with the client sequence number it is sent with.
type ingestConn struct {
	due  []time.Duration
	recs []*fingerprint.Record
	seqs []uint64
}

// ingestResult is the per-record outcome of one connection's rung.
type ingestResult struct {
	done  []time.Duration // ack time from the schedule start; -1 when not acked
	late  []float64
	acked []*fingerprint.Record
}

// runIngestConn drives one connection open-loop: whenever it is idle
// it waits for the next due record, then coalesces every record due by
// then (up to maxBatch) into one SubmitBatch.
func runIngestConn(c *collector.Client, cid string, start time.Time, in ingestConn, maxBatch int) ingestResult {
	res := ingestResult{done: make([]time.Duration, len(in.due))}
	for i := range res.done {
		res.done[i] = -1
	}
	for next := 0; next < len(in.due); {
		if waitUntil(start.Add(in.due[next])) {
			res.late = append(res.late, float64(time.Since(start)-in.due[next])/1e6)
		}
		now := time.Since(start)
		end := next + 1
		for end < len(in.due) && end-next < maxBatch && in.due[end] <= now {
			end++
		}
		batch := make([]collector.BatchRecord, 0, end-next)
		for i := next; i < end; i++ {
			batch = append(batch, collector.BatchRecord{Rec: in.recs[i], Seq: in.seqs[i]})
		}
		acks, err := c.SubmitBatch(batch, cid)
		t := time.Since(start)
		if err != nil {
			return res // the rest stay unacked and count as failed
		}
		for k, a := range acks {
			if a.Error == "" {
				res.done[next+k] = t
				res.acked = append(res.acked, in.recs[next+k])
			}
		}
		next = end
	}
	return res
}

// openStore opens the sharded store under dir. The run's own store does
// not fsync (README.md says why); fsyncLayers opens one that does.
func openStore(dir string, shards int, policy storage.SyncPolicy, reg *obs.Registry) (*storage.ShardedStore, error) {
	ss, _, err := storage.RecoverSharded(storage.ShardedWALOptions{
		WALOptions: storage.WALOptions{Dir: dir, Policy: policy, Registry: reg},
		Shards:     shards,
	})
	return ss, err
}

func runIngest(e *env) (*outcome, error) {
	cfg := e.spec.Ingest
	limit := e.spec.LatencyLimitsMS.Ack
	pop := simulate(e.seed, cfg.Users)
	out := newOutcome()
	if e.probe {
		resetPeakRSS()
	}

	// Set-up: opening the sharded store, repeated on fresh directories;
	// the last one serves the run.
	opens := cfg.StoreOpens
	if e.probe {
		opens = 1
	}
	var ss *storage.ShardedStore
	var dir string
	var setupS []float64
	for r := 0; r < opens; r++ {
		if ss != nil {
			ss.CloseWALs()
			os.RemoveAll(dir)
		}
		dir = filepath.Join(e.work, fmt.Sprintf("store-%d", r))
		runtime.GC()
		c0 := processCPU()
		s, err := openStore(dir, cfg.Shards, storage.SyncNever, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (processCPU() - c0).Seconds())
		ss = s
	}
	out.raw["setup_s"] = setupS
	out.e2e["setup_s"] = median(setupS)

	srv := collector.NewServer(ss)
	srv.Logf = log.New(os.Stderr, "", 0).Printf
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(lis)
	}()
	stopServer := func() { srv.Close(); <-served }
	defer stopServer()

	nconn := runtime.NumCPU()
	clients := make([]*collector.Client, nconn)
	for i := range clients {
		c, err := collector.Dial(lis.Addr().String())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		if f, err := c.Negotiate(); err != nil || f != collector.FramingBinary {
			return nil, fmt.Errorf("collector: binary framing not negotiated (%q, %v)", f, err)
		}
		clients[i] = c
	}

	ladder, durs := cfg.Ladder, ladderPlan(cfg.Ladder, cfg.Nominal, e.seconds, e.spec.NominalShare)
	if e.probe {
		ladder, durs = []float64{cfg.Nominal}, []time.Duration{time.Second}
	}
	tr, err := startTrace(e)
	if err != nil {
		return nil, err
	}
	cursor := 0
	seqs := make([]uint64, nconn)
	var all []*fingerprint.Record
	var rungs []*rungResult
	var nominal *rungResult
	var nomBefore, nomAfter obs.Snapshot
	nominalRecords := 0
	for ri, rate := range ladder {
		rng := rand.New(rand.NewSource(e.seed*7919 + 50 + int64(ri)))
		arrivals := poissonArrivals(rng, rate, durs[ri])
		work := make([]ingestConn, nconn)
		for j, due := range arrivals {
			c := j % nconn
			seqs[c]++
			work[c].due = append(work[c].due, due)
			work[c].recs = append(work[c].recs, pop.recs[cursor%len(pop.recs)])
			work[c].seqs = append(work[c].seqs, seqs[c])
			cursor++
		}
		runtime.GC()
		before, cpu0 := srv.Metrics().Snapshot(), processCPU()
		results := make([]ingestResult, nconn)
		start := time.Now().Add(20 * time.Millisecond)
		var wg sync.WaitGroup
		for c := range clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c] = runIngestConn(clients[c], fmt.Sprintf("bench-%d", c), start, work[c], cfg.MaxBatch)
			}(c)
		}
		wg.Wait()
		after := srv.Metrics().Snapshot()

		rr := &rungResult{rate: rate, cpuMS: cpuMSPerOp(cpu0, len(arrivals))}
		for j := range arrivals {
			c, k := j%nconn, j/nconn
			if d := results[c].done[k]; d >= 0 {
				rr.lat.ok(d - work[c].due[k])
			} else {
				rr.lat.fail()
			}
		}
		for _, r := range results {
			rr.late = append(rr.late, r.late...)
			all = append(all, r.acked...)
		}
		_, rr.serverSec = histDelta(before, after, "collector_request_seconds")
		rr.pass = rungPasses(rr, limit)
		rungs = append(rungs, rr)
		if rate == cfg.Nominal {
			nominal, nominalRecords = rr, len(arrivals)
			nomBefore, nomAfter = before, after
		}
		if !rr.pass && rate > cfg.Nominal {
			break
		}
	}
	if err := tr.stop(out.layers); err != nil {
		return nil, err
	}
	stopServer()
	if err := ss.CloseWALs(); err != nil {
		return nil, err
	}
	if e.probe {
		return out, nil
	}
	if nominal == nil {
		return nil, fmt.Errorf("ladder %v has no nominal rung %v", cfg.Ladder, cfg.Nominal)
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
		out.fail("%d of %d records not acked at the nominal rung", nominal.lat.failed, nominal.lat.n())
	}
	lateP99 := quantile(sortedCopy(nominal.late), 0.99)
	if lateP99 > limit/4 {
		out.fail("load generator fell behind: late p99 %.2f ms", lateP99)
	}
	out.layers["loadgen.late_ms_p99"] = lateP99
	out.layers["traced.cpu_ms_per_op"] = nominal.cpuMS
	low := rungs[0]
	lowP50, _, _ := low.lat.summary(limit)
	out.layers["wire.overhead_ms_p50"] = lowP50 - 1e3*low.serverSec/float64(low.lat.n())
	nreq, reqSum := histDelta(nomBefore, nomAfter, "collector_request_seconds")
	if nreq > 0 {
		out.layers["collector.request_ms_mean"] = 1e3 * reqSum / float64(nreq)
	}
	batches := nomAfter.Counters[`collector_requests_total{verb="batch"}`] - nomBefore.Counters[`collector_requests_total{verb="batch"}`]
	if batches > 0 {
		out.layers["collector.records_per_batch"] = float64(nominalRecords) / float64(batches)
	}
	out.layers["collector.bytes_per_record"] = float64(nomAfter.Counters["collector_bytes_received_total"]-nomBefore.Counters["collector_bytes_received_total"]) / float64(nominalRecords)
	if e.trace {
		if err := fsyncLayers(out.layers, filepath.Join(e.work, "fsync-probe"), cfg.Shards, pop.recs[:min(len(pop.recs), nominalRecords)]); err != nil {
			return nil, err
		}
	}
	for _, rr := range rungs {
		rp50, rtail, _ := rr.lat.summary(limit)
		out.raw[fmt.Sprintf("rung_%g_p50_ms", rr.rate)] = []float64{rp50}
		out.raw[fmt.Sprintf("rung_%g_tail_ms", rr.rate)] = []float64{rtail}
		if !rr.pass {
			break
		}
		out.layers["collector.max_rps"] = rr.rate
	}

	// Correctness: after recovery every acked record is present.
	rec, err := openStore(dir, cfg.Shards, storage.SyncNever, nil)
	if err != nil {
		return nil, err
	}
	var got []*fingerprint.Record
	for i := 0; i < rec.Shards(); i++ {
		got = append(got, rec.Shard(i).Records()...)
	}
	rec.CloseWALs()
	if len(got) != len(all) {
		out.fail("recovered %d records, %d were acked", len(got), len(all))
	} else if recordDigest(got) != recordDigest(all) {
		out.fail("recovered records differ from the acked ones")
	}

	if !e.trace {
		mib, err := probePeakRSS(e)
		if err != nil {
			return nil, err
		}
		out.e2e["peak_rss_mib"] = mib
	}
	return out, nil
}

// fsyncLayers measures the storage.* layer at fsync=always, which the
// run's own store does not use: the records are appended one per
// group commit, as the collector does at the nominal rate, straight
// into a fresh sharded store.
func fsyncLayers(layers map[string]float64, dir string, shards int, recs []*fingerprint.Record) error {
	reg := obs.NewRegistry()
	ss, err := openStore(dir, shards, storage.SyncAlways, reg)
	if err != nil {
		return err
	}
	before := reg.Snapshot()
	for i, r := range recs {
		if _, err := ss.AppendBatchDurable([]storage.BatchAppend{{Record: r, Seq: uint64(i + 1)}}, "fsync-probe"); err != nil {
			ss.CloseWALs()
			return err
		}
	}
	after := reg.Snapshot()
	walLayers(layers, before, after, len(recs))
	return ss.CloseWALs()
}
