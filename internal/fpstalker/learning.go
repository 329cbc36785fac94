package fpstalker

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/parallel"
)

// LearnLinker is the learning-based FP-Stalker variant: a random
// forest scores (known fingerprint, query fingerprint) pairs on a
// similarity feature vector; candidates above Threshold are ranked by
// probability. Candidate generation prefilters on browser family (as
// the original does) — served from the engine's blocking index — and
// each surviving pair costs a feature-vector build plus a forest
// evaluation, so the candidate set is scored on a worker pool, one
// forest pass per block of candidates. Pair vectors are built straight
// off the table rows: the UA parsed at Add time, the interned keys and
// bitset Jaccards over the interned sets. Add/TopK are safe for
// concurrent callers; set NoBlocking and Workers=1 for the paper's
// Figure 9 scalability-wall measurement.
type LearnLinker struct {
	Forest *mlearn.Forest
	// Threshold is the minimum link probability (default 0.5).
	Threshold float64
	// NoBlocking disables the candidate-blocking index so every query
	// scans the whole table (ablation).
	NoBlocking bool
	// Workers caps the scoring pool: 0 means GOMAXPROCS, 1 is serial.
	Workers int

	eng *engine
}

// NewLearnLinker wraps a trained pair model.
func NewLearnLinker(f *mlearn.Forest) *LearnLinker {
	return &LearnLinker{Forest: f, Threshold: 0.5, eng: newEngine()}
}

// Len implements Linker.
func (l *LearnLinker) Len() int { return l.eng.size() }

// Add implements Linker.
func (l *LearnLinker) Add(id string, rec *fingerprint.Record) {
	e := getEntry(rec, true)
	l.eng.mu.Lock()
	l.eng.add(id, e)
	l.eng.mu.Unlock()
	putEntry(e)
}

// Remove implements DynamicLinker: it deletes id's entry from the
// table and the blocking index, releasing its interned payloads, and
// reports whether the instance was known. Safe for concurrent use with
// Add and TopK.
func (l *LearnLinker) Remove(id string) bool {
	l.eng.mu.Lock()
	_, known := l.eng.remove(id)
	l.eng.mu.Unlock()
	return known
}

// IndexDigest implements DynamicLinker: a canonical digest over the
// entry table and the blocking index.
func (l *LearnLinker) IndexDigest() string {
	l.eng.mu.RLock()
	defer l.eng.mu.RUnlock()
	return l.eng.indexDigest()
}

// TopK implements Linker.
func (l *LearnLinker) TopK(rec *fingerprint.Record, k int) []Candidate {
	cands, _ := l.TopKCtx(nil, rec, k) // nil ctx: never canceled
	return cands
}

// TopKCtx is TopK with cooperative cancellation; see
// RuleLinker.TopKCtx for the contract.
func (l *LearnLinker) TopKCtx(ctx context.Context, rec *fingerprint.Record, k int) ([]Candidate, error) {
	if k <= 0 {
		return nil, nil
	}
	// One query-side entry per TopK: the UA parse, the feature keys
	// and the set hashes are computed once here instead of once per
	// candidate pair, and the sets are probed against the table's
	// vocabulary once under the read lock.
	q := getEntry(rec, true)
	defer putEntry(q)
	l.eng.mu.RLock()
	defer l.eng.mu.RUnlock()
	t := &l.eng.tab
	qs := new(querySets)
	t.probe(q, qs)
	cs := l.eng.learnCandidates(q, l.NoBlocking)
	// Each candidate block becomes one row-major matrix of pair vectors
	// scored by a single forest pass (every tree walks the whole block
	// before the next tree loads), instead of one forest walk per pair.
	return l.eng.scoreTopKBatch(ctx, cs, l.Workers, k, func(lo, hi int, out []Candidate) []Candidate {
		s := batchPool.Get().(*batchScratch)
		kept, xs := s.kept[:0], s.xs[:0]
		for j := lo; j < hi; j++ {
			i := l.eng.candIdx(cs, j)
			// Prefilter: browser family and form factor must match when
			// both parse. Kept here (not only in the blocking index) so
			// the NoBlocking scan returns identical results.
			if h := &t.hot[i]; q.ok && h.flags&rowOK != 0 {
				if ua := &t.uas.slots[h.uaID].ua; q.ua.Browser != ua.Browser || q.ua.Mobile != ua.Mobile {
					continue
				}
			}
			xs = t.appendPair(xs, i, q, qs)
			kept = append(kept, i)
		}
		if len(kept) > 0 {
			probs := s.probs[:len(kept)]
			oks := s.oks[:len(kept)]
			l.Forest.PredictProbaAtLeastBatch(xs, l.Threshold, probs, oks)
			for j, i := range kept {
				if oks[j] {
					out = append(out, Candidate{ID: t.ids[i], Score: probs[j]})
				}
			}
		}
		s.kept, s.xs = kept, xs
		batchPool.Put(s)
		return out
	})
}

// batchScratch holds one scoring worker's per-block buffers: the
// row-major pair-vector matrix, the surviving rows, and the batch
// kernel's outputs. Sized to scoreBlock so a block never reallocates.
type batchScratch struct {
	xs    []float64
	kept  []int
	probs []float64
	oks   []bool
}

var batchPool = sync.Pool{New: func() any {
	return &batchScratch{
		xs:    make([]float64, 0, scoreBlock*NumPairFeatures),
		kept:  make([]int, 0, scoreBlock),
		probs: make([]float64, scoreBlock),
		oks:   make([]bool, scoreBlock),
	}
}}

// NumPairFeatures is the dimensionality of PairVector.
const NumPairFeatures = 16

// PairFeatureNames labels PairVector's dimensions, in order — used to
// report the trained model's feature importances.
var PairFeatureNames = [NumPairFeatures]string{
	"same browser family",
	"browser version movement",
	"OS version movement",
	"canvas equal",
	"GPU image equal",
	"font Jaccard",
	"plugin Jaccard",
	"language Jaccard",
	"screen equal",
	"timezone equal",
	"storage toggles equal",
	"GPU renderer equal",
	"audio equal",
	"total diff fraction",
	"rare diff fraction",
	"time gap",
}

// PairVector builds the similarity feature vector for a (known, query)
// fingerprint pair — per-feature equality indicators, Jaccard
// similarities for set features, version movement, and the time gap —
// the same flavour of features the original FP-Stalker model uses. It
// interns known into a throwaway one-row table and runs the linker's
// own pair-feature function (soa.appendPair), so it returns exactly
// the vector TopK scores for the pair.
func PairVector(known, query *fingerprint.Record) []float64 {
	var t soa
	t.init()
	i := t.appendRow("", newPairEntry(known))
	q := newPairEntry(query)
	var qs querySets
	t.probe(q, &qs)
	return t.appendPair(make([]float64, 0, NumPairFeatures), i, q, &qs)
}

// querySets is a query entry's sets rendered against a table's set
// vocabulary, the form appendPair reads.
type querySets [numSets]querySet

// probe renders q's sets into qs. Callers must hold the engine's lock
// (read side suffices).
func (t *soa) probe(q *entry, qs *querySets) {
	for k, hs := range q.sets {
		t.sets.probe(hs, &qs[k])
	}
}

// appendPair appends the pair feature vector of (table row i, query
// entry q with its sets probed into qs) to dst: the one pair-feature
// function behind TopK
// scoring, the training set and PairVector. Every input is read in
// place — the hot row, the row's UA slot, its interned keys and set
// bitsets — so a scan over N candidates performs no per-pair
// allocation or copy. Vectors are bit-identical to the per-entry
// oracle in oracle_test.go: each feature is the same float64
// arithmetic over the same integers.
func (t *soa) appendPair(dst []float64, i int, q *entry, qs *querySets) []float64 {
	eq := func(cond bool) float64 {
		if cond {
			return 1
		}
		return 0
	}
	h := &t.hot[i]
	var verAdvance, osAdvance, sameFamily float64
	if h.flags&rowOK != 0 && q.ok {
		kUA, qUA := &t.uas.slots[h.uaID].ua, q.ua
		sameFamily = eq(kUA.Browser == qUA.Browser)
		switch qUA.BrowserVersion.Compare(kUA.BrowserVersion) {
		case 0:
			verAdvance = 1 // same version
		case 1:
			verAdvance = 0.5 // plausible update
		default:
			verAdvance = 0 // downgrade
		}
		switch qUA.OSVersion.Compare(kUA.OSVersion) {
		case 0:
			osAdvance = 1
		case 1:
			osAdvance = 0.5
		default:
			osAdvance = 0
		}
	}
	gapDays := 0.0
	if h.flags&rowHasTime != 0 && q.hasTime {
		gapDays = math.Abs(subNS(q.timeNS, h.timeNS).Hours()) / 24
	}
	ak, bk := t.keys.row(h.keysID), q.keys
	total, rare := countKeyDiffs(ak, bk)
	return append(dst,
		sameFamily,
		verAdvance,
		osAdvance,
		eq(ak[keyIdxCanvas] == bk[keyIdxCanvas]),
		eq(ak[keyIdxGPUImage] == bk[keyIdxGPUImage]),
		t.sets.jaccard(h.setIDs[setFonts], &qs[setFonts]),
		t.sets.jaccard(h.setIDs[setPlugins], &qs[setPlugins]),
		t.sets.jaccard(h.setIDs[setLangs], &qs[setLangs]),
		eq(ak[keyIdxScreen] == bk[keyIdxScreen]),
		eq(ak[keyIdxTimezone] == bk[keyIdxTimezone]),
		eq((h.flags&rowCookie != 0) == q.cookie && (h.flags&rowLocalStorage != 0) == q.localStorage),
		eq(ak[keyIdxGPURenderer] == bk[keyIdxGPURenderer]),
		eq(ak[keyIdxAudio] == bk[keyIdxAudio]),
		float64(total)/float64(fingerprint.NumFeatures),
		float64(rare)/4,
		math.Min(gapDays/120, 1),
	)
}

// subNS is a−b for two Unix-nanosecond instants, saturating like
// time.Time.Sub when the instants lie more than ~292 years apart.
func subNS(a, b int64) time.Duration {
	d := a - b
	if (d < a) != (b > 0) { // the subtraction overflowed
		if b > 0 {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return time.Duration(d)
}

// trainPair is one labelled training example with its provenance kept
// so the sampler can be audited.
type trainPair struct {
	x         []float64
	label     int
	knownInst int // instance of the stored-side record
	queryInst int // instance of the query-side record
}

// negativeDrawTries bounds the resampling when a negative draw hits the
// query's own instance: with a 4096-record pool the odds of 16 straight
// same-instance draws are negligible unless the pool genuinely contains
// nothing else, in which case the negative is skipped.
const negativeDrawTries = 16

// negPoolSize is the sliding-window size of the negative-sampling pool.
const negPoolSize = 4096

// negPool is the fixed-capacity sliding window of recent records the
// negative sampler draws from. The historical implementation kept a
// slice and re-sliced off its front (`pool = pool[len-4096:]`), which
// pinned the ever-growing backing array for the whole stream; the ring
// writes in place and holds exactly negPoolSize slots. Logical index i
// (0 = oldest retained record) maps onto the same record the sliced
// window exposed at i, so a given RNG stream draws the same records as
// before.
type negPool struct {
	buf   []negPoolRec
	count int // total records ever pushed
}

type negPoolRec struct {
	idx  int32 // index into the record stream
	inst int32
}

func newNegPool() *negPool { return &negPool{buf: make([]negPoolRec, negPoolSize)} }

func (p *negPool) push(idx, inst int32) {
	p.buf[p.count%negPoolSize] = negPoolRec{idx, inst}
	p.count++
}

func (p *negPool) size() int { return min(p.count, negPoolSize) }

func (p *negPool) at(i int) negPoolRec {
	if p.count <= negPoolSize {
		return p.buf[i]
	}
	return p.buf[(p.count+i)%negPoolSize]
}

// pairSpec is one sampled (known, query) pair before its feature vector
// exists: record indices plus the label. Splitting sampling from vector
// construction is what lets the vectors build in parallel while the
// sampled sequence stays identical to the serial RNG stream.
type pairSpec struct {
	known, query int32
	label        int8
}

// samplePairSpecs runs the sequential sampling pass of pairTrainingSet:
// consecutive fingerprints of one instance are positives; records of
// *other* instances drawn from the sliding pool are negatives. Draws
// that land on the query's own instance are rejected and retried a
// bounded number of times — a same-instance pair labelled 0 would
// teach the forest to unlink true matches.
func samplePairSpecs(instances []int, rng *rand.Rand) []pairSpec {
	last := make(map[int]int32) // instance → index of its latest record
	var specs []pairSpec
	pool := newNegPool()
	for i, inst := range instances {
		if prev, ok := last[inst]; ok {
			specs = append(specs, pairSpec{prev, int32(i), 1})
			// Two negatives per positive keeps classes balanced enough.
			for n := 0; n < 2 && pool.size() > 1; n++ {
				for tries := 0; tries < negativeDrawTries; tries++ {
					cand := pool.at(rng.Intn(pool.size()))
					if int(cand.inst) == inst {
						continue
					}
					specs = append(specs, pairSpec{cand.idx, int32(i), 0})
					break
				}
			}
		}
		last[inst] = int32(i)
		pool.push(int32(i), int32(inst))
	}
	return specs
}

// pairTrainingSet builds the labelled pair set TrainPairModel fits, in
// three passes: a sequential sampling pass (samplePairSpecs — cheap,
// RNG order preserved); a pass that preprocesses each referenced
// record once (UA parse, feature keys, sorted set hashes — in
// parallel) and interns it into a throwaway table; and a parallel pass
// building the pair vectors between table rows with the linker's own
// appendPair. The output pairs and their order are identical for every
// worker count, and to the historical fully-serial builder.
func pairTrainingSet(records []*fingerprint.Record, instances []int, rng *rand.Rand, workers int) []trainPair {
	specs := samplePairSpecs(instances, rng)
	used := make([]bool, len(records))
	nUsed := 0
	for _, s := range specs {
		for _, r := range [2]int32{s.known, s.query} {
			if !used[r] {
				used[r] = true
				nUsed++
			}
		}
	}
	// The throwaway table: every used record interned as one row. A
	// pair is then (row of the known record, row of the query record
	// read back as a query) — the shape TopK scores. Entries are built
	// in parallel a chunk at a time into reused buffers, so only one
	// chunk of them is ever alive next to the table.
	var t soa
	t.init()
	t.reserve(nUsed)
	rows := make([]int32, len(records))
	chunk := make([]entry, min(len(records), 256))
	for lo := 0; lo < len(records); lo += len(chunk) {
		n := min(len(chunk), len(records)-lo)
		parallel.ForEach(workers, n, func(j int) {
			if used[lo+j] {
				chunk[j].fill(records[lo+j], true)
			}
		})
		for j := range n {
			if used[lo+j] {
				rows[lo+j] = int32(t.appendRow("", &chunk[j]))
			}
		}
	}
	return parallel.Map(workers, len(specs), func(i int) trainPair {
		s := specs[i]
		var q entry
		var qs querySets
		t.rowQuery(int(rows[s.query]), &q, &qs)
		return trainPair{
			x:         t.appendPair(make([]float64, 0, NumPairFeatures), int(rows[s.known]), &q, &qs),
			label:     int(s.label),
			knownInst: instances[s.known],
			queryInst: instances[s.query],
		}
	})
}

// rowQuery reads row i back as a query entry q with its sets in qs,
// aliasing the table: appendPair needs no set hashes, and a row's
// interned sets are already in the vocabulary's representation.
// Callers must hold the engine's lock (read side suffices).
func (t *soa) rowQuery(i int, q *entry, qs *querySets) {
	h := &t.hot[i]
	slot := t.uas.slots[h.uaID]
	*q = entry{
		uaStr:        slot.str,
		keys:         t.keys.row(h.keysID),
		hrs:          h.hrs,
		timeNS:       h.timeNS,
		ok:           h.flags&rowOK != 0,
		cookie:       h.flags&rowCookie != 0,
		localStorage: h.flags&rowLocalStorage != 0,
		hasTime:      h.flags&rowHasTime != 0,
	}
	if q.ok {
		q.ua = &slot.ua
	}
	for k, id := range h.setIDs {
		s := &t.sets.sets[id]
		qs[k] = querySet{bits: t.sets.bits[id], n: int(s.n), over: s.over}
	}
}

// PairTrainingSet builds the labelled pair-vector training set that
// TrainPairModel fits — rows in sampling order and their 0/1 labels —
// for callers that train or benchmark the forest directly. seed must
// match the ForestConfig seed for the pair stream TrainPairModel would
// draw; workers follows the package convention (1 serial, else NumCPU)
// and never changes the output.
func PairTrainingSet(records []*fingerprint.Record, instances []int, seed int64, workers int) ([][]float64, []int, error) {
	if len(records) != len(instances) {
		return nil, nil, fmt.Errorf("fpstalker: %d records but %d instance labels", len(records), len(instances))
	}
	rng := rand.New(rand.NewSource(seed + 99))
	pairs := pairTrainingSet(records, instances, rng, workers)
	if len(pairs) == 0 {
		return nil, nil, fmt.Errorf("fpstalker: no training pairs (need repeat visits)")
	}
	X := make([][]float64, len(pairs))
	y := make([]int, len(pairs))
	for i, p := range pairs {
		X[i], y[i] = p.x, p.label
	}
	return X, y, nil
}

// TrainPairModel builds a training set from a labelled record stream
// (records in time order with their true instance IDs) and fits the
// forest: consecutive fingerprints of one instance are positives;
// fingerprints of other instances sampled at the same time are
// negatives. Preprocessing and tree training both run on cfg.Workers
// workers; the model is identical for every worker count.
func TrainPairModel(records []*fingerprint.Record, instances []int, cfg mlearn.ForestConfig) (*mlearn.Forest, error) {
	X, y, err := PairTrainingSet(records, instances, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return mlearn.TrainForest(X, y, cfg)
}
