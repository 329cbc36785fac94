package fpstalker

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/mlearn"
	"fpdyn/internal/useragent"
)

// The bit-exact oracle for the columnar scorers: the historical
// per-entry pair-vector builder over standalone entries, whose set
// Jaccards are merge walks over sorted element hashes. The linker's
// soa.appendPair must reproduce it float for float.

// appendPairVector builds the pair feature vector of two standalone
// entries into dst.
func appendPairVector(dst []float64, known, query *entry) []float64 {
	eq := func(cond bool) float64 {
		if cond {
			return 1
		}
		return 0
	}
	var verAdvance, osAdvance, sameFamily float64
	if known.ok && query.ok {
		kUA, qUA := known.ua, query.ua
		sameFamily = eq(kUA.Browser == qUA.Browser)
		switch qUA.BrowserVersion.Compare(kUA.BrowserVersion) {
		case 0:
			verAdvance = 1
		case 1:
			verAdvance = 0.5
		default:
			verAdvance = 0
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
	if known.hasTime && query.hasTime {
		gap := time.Unix(0, query.timeNS).Sub(time.Unix(0, known.timeNS))
		gapDays = math.Abs(gap.Hours()) / 24
	}
	total, rare := countKeyDiffs(known.keys, query.keys)
	ak, bk := known.keys, query.keys
	return append(dst,
		sameFamily,
		verAdvance,
		osAdvance,
		eq(ak[keyIdxCanvas] == bk[keyIdxCanvas]),
		eq(ak[keyIdxGPUImage] == bk[keyIdxGPUImage]),
		jaccardSorted(known.sets[setFonts], query.sets[setFonts]),
		jaccardSorted(known.sets[setPlugins], query.sets[setPlugins]),
		jaccardSorted(known.sets[setLangs], query.sets[setLangs]),
		eq(ak[keyIdxScreen] == bk[keyIdxScreen]),
		eq(ak[keyIdxTimezone] == bk[keyIdxTimezone]),
		eq(known.cookie == query.cookie && known.localStorage == query.localStorage),
		eq(ak[keyIdxGPURenderer] == bk[keyIdxGPURenderer]),
		eq(ak[keyIdxAudio] == bk[keyIdxAudio]),
		float64(total)/float64(fingerprint.NumFeatures),
		float64(rare)/4,
		math.Min(gapDays/120, 1),
	)
}

// oraclePairVector is PairVector computed by the oracle.
func oraclePairVector(known, query *fingerprint.Record) []float64 {
	return appendPairVector(nil, newPairEntry(known), newPairEntry(query))
}

// jaccardSorted is the Jaccard similarity of two sorted unique hash
// sets (see sortedHashSet): a single merge walk. It agrees with jaccard
// over the original string lists up to 64-bit element-hash collisions.
func jaccardSorted(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// jaccard is the set Jaccard similarity of two string lists. Both
// sides are deduplicated, so the result is a true Jaccard in [0, 1]
// regardless of upstream hygiene.
func jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	setA := make(map[string]bool, len(a))
	for _, s := range a {
		setA[s] = true
	}
	setB := make(map[string]bool, len(b))
	inter := 0
	for _, s := range b {
		if setB[s] {
			continue
		}
		setB[s] = true
		if setA[s] {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// oracleTopK ranks the stored records (instance id → latest record)
// for query the way LearnLinker.TopK must: the family prefilter, one
// oracle pair vector and one scalar forest walk per candidate, then
// the package's total order.
func oracleTopK(f *mlearn.Forest, threshold float64, stored map[string]*fingerprint.Record, query *fingerprint.Record, k int) []Candidate {
	q := newPairEntry(query)
	var cands []Candidate
	for id, rec := range stored {
		e := newPairEntry(rec)
		if q.ok && e.ok && (q.ua.Browser != e.ua.Browser || q.ua.Mobile != e.ua.Mobile) {
			continue
		}
		if p, ok := f.PredictProbaAtLeast(appendPairVector(nil, e, q), threshold); ok {
			cands = append(cands, Candidate{ID: id, Score: p})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sortCandidates(cands)
	return cands[:min(k, len(cands))]
}

// sortedHashSet is a set's canonical content, freshly allocated.
func sortedHashSet(ss []string) []uint64 { return appendSortedHashSet(nil, ss) }

// sameBits reports whether two vectors are equal float for float
// (bit patterns, so -0 vs 0 or NaN payloads would not slip through).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkRowsAgainstOracle compares, for every row of l's table and every
// query, the linker's pair vector with the oracle's over the row's
// stored record.
func checkRowsAgainstOracle(t *testing.T, l *LearnLinker, stored map[string]*fingerprint.Record, queries []*fingerprint.Record) {
	t.Helper()
	l.eng.mu.RLock()
	defer l.eng.mu.RUnlock()
	tab := &l.eng.tab
	if tab.len() != len(stored) {
		t.Fatalf("table holds %d rows, oracle %d records", tab.len(), len(stored))
	}
	for _, query := range queries {
		q := newPairEntry(query)
		var qs querySets
		tab.probe(q, &qs)
		for i, id := range tab.ids {
			got := tab.appendPair(nil, i, q, &qs)
			want := appendPairVector(nil, newPairEntry(stored[id]), q)
			if !sameBits(got, want) {
				t.Fatalf("row %d (%s): pair vector\n got  %v\n want %v", i, id, got, want)
			}
		}
	}
}

// TestPairVectorMatchesOracle: the columnar pair features equal the
// oracle's bit for bit — for every (row, query) pair of a populated
// table, for the exported PairVector, and for the training matrix, so
// the trained forest is unchanged too.
func TestPairVectorMatchesOracle(t *testing.T) {
	records, instances := engineWorld(t, 300, 91)
	l := NewLearnLinker(nil)
	stored := make(map[string]*fingerprint.Record)
	for i, rec := range records {
		id := InstanceID(instances[i])
		l.Add(id, rec)
		stored[id] = rec
	}
	queries := goldenQueries(records)
	checkRowsAgainstOracle(t, l, stored, queries)

	for i := 1; i < len(records); i += 17 {
		got, want := PairVector(records[i-1], records[i]), oraclePairVector(records[i-1], records[i])
		if !sameBits(got, want) {
			t.Fatalf("PairVector(%d, %d)\n got  %v\n want %v", i-1, i, got, want)
		}
	}

	X, _, err := PairTrainingSet(records, instances, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := samplePairSpecs(instances, rand.New(rand.NewSource(5+99)))
	if len(specs) != len(X) {
		t.Fatalf("%d specs, %d training rows", len(specs), len(X))
	}
	for j, s := range specs {
		if want := oraclePairVector(records[s.known], records[s.query]); !sameBits(X[j], want) {
			t.Fatalf("training row %d\n got  %v\n want %v", j, X[j], want)
		}
	}
}

// TestScalarBatchTopKEquivalence pins the learning linker's batch
// scoring over the columnar table against the scalar oracle (one
// oracle pair vector and one forest walk per stored record): identical
// rankings, with and without blocking, serial and parallel.
func TestScalarBatchTopKEquivalence(t *testing.T) {
	records, instances := engineWorld(t, 400, 73)
	forest, err := TrainPairModel(records, instances, mlearn.ForestConfig{Seed: 7, NumTrees: 8, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[string]*fingerprint.Record)
	for i, rec := range records {
		stored[InstanceID(instances[i])] = rec
	}
	queries := goldenQueries(records)
	want := make([][]Candidate, len(queries))
	for qi, q := range queries {
		want[qi] = oracleTopK(forest, 0.5, stored, q, 10)
	}
	for _, mode := range []struct {
		name       string
		noBlocking bool
		workers    int
	}{
		{"blocked-serial", false, 1},
		{"blocked-parallel", false, 4},
		{"scan-serial", true, 1},
		{"scan-parallel", true, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			l := NewLearnLinker(forest)
			l.NoBlocking = mode.noBlocking
			l.Workers = mode.workers
			for i, rec := range records {
				l.Add(InstanceID(instances[i]), rec)
			}
			for qi, q := range queries {
				if got := l.TopK(q, 10); !reflect.DeepEqual(want[qi], got) {
					t.Fatalf("query %d: ranking diverged\n oracle: %v\n batch:  %v", qi, want[qi], got)
				}
			}
		})
	}
}

// churnRecord is a fingerprint whose fonts come from the named family
// — a disjoint vocabulary per phase — with enough spread that the
// phase's vocabulary alone exceeds the bitset width.
func churnRecord(family string, i int, at time.Time) *fingerprint.Record {
	rec := chromeRecord(useragent.V(63+i%3), at)
	fp := rec.FP
	fp.CanvasHash = fmt.Sprintf("%s-canvas-%d", family, i%23)
	fp.TimezoneOffset = 60 * (i % 5)
	fp.Fonts = []string{"Arial", fmt.Sprintf("%s-%d", family, i%17)}
	for j := 0; j < 40; j++ {
		fp.Fonts = append(fp.Fonts, fmt.Sprintf("%s-%d", family, (i*7+j*13)%700))
	}
	fp.Plugins = []string{fmt.Sprintf("plugin-%d", i%4)}
	fp.Languages = []string{"en-US", fmt.Sprintf("lang-%d", i%3)}
	return rec
}

// TestStoreChurnReusesSlots: add → evict → re-add with a new font
// vocabulary. Freed key slots, set slots and vocabulary bits are
// reused rather than grown, every (row, query) pair vector equals the
// oracle's after each phase, and the digest matches a fresh build.
func TestStoreChurnReusesSlots(t *testing.T) {
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	const n = 120
	l := NewLearnLinker(nil)
	stored := make(map[string]*fingerprint.Record)
	add := func(id string, rec *fingerprint.Record) {
		l.Add(id, rec)
		stored[id] = rec
	}
	queries := func(family string) []*fingerprint.Record {
		var qs []*fingerprint.Record
		for _, i := range []int{0, 5, 31, 77} {
			qs = append(qs, churnRecord(family, i, base.Add(48*time.Hour)))
		}
		// A query carrying fonts no stored set holds.
		qs = append(qs, churnRecord(family+"-unseen", 3, base.Add(72*time.Hour)))
		return qs
	}
	check := func(phase string, qs []*fingerprint.Record) {
		t.Helper()
		checkRowsAgainstOracle(t, l, stored, qs)
		fresh := NewLearnLinker(nil)
		for id, rec := range stored {
			fresh.Add(id, rec)
		}
		if got, want := l.IndexDigest(), fresh.IndexDigest(); got != want {
			t.Fatalf("%s: digest %s, fresh build %s", phase, got, want)
		}
	}
	type poolSize struct{ keySlots, keyWords, setSlots, overflow int }
	size := func() poolSize {
		tab := &l.eng.tab
		s := poolSize{len(tab.keys.idx.slots), len(tab.keys.arena), len(tab.sets.bits), 0}
		for _, st := range tab.sets.sets {
			s.overflow += len(st.over)
		}
		return s
	}

	for i := 0; i < n; i++ {
		add(fmt.Sprintf("c-%d", i), churnRecord("A", i, base.Add(time.Duration(i)*time.Minute)))
	}
	check("add", queries("A"))
	grown := size()
	if grown.overflow == 0 {
		t.Fatal("phase vocabulary never overflowed the bitset: the test covers no overflow")
	}

	// Evict everything but a few rows.
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			id := fmt.Sprintf("c-%d", i)
			l.Remove(id)
			delete(stored, id)
		}
	}
	check("evict", queries("A"))
	tab := &l.eng.tab
	freedBits := len(tab.sets.free)
	if freedBits == 0 {
		t.Fatal("evicting most rows freed no vocabulary bits")
	}

	// Re-add under new IDs with a disjoint font vocabulary.
	for i := 0; i < n-n/10; i++ {
		add(fmt.Sprintf("d-%d", i), churnRecord("B", i, base.Add(time.Duration(n+i)*time.Minute)))
	}
	check("re-add", queries("B"))
	if got := size(); got.keySlots > grown.keySlots || got.keyWords > grown.keyWords || got.setSlots > grown.setSlots {
		t.Fatalf("pools grew instead of reusing freed slots: after churn %+v, after first phase %+v", got, grown)
	}
	if len(tab.sets.free) >= freedBits {
		t.Fatalf("re-add took none of the %d freed vocabulary bits", freedBits)
	}
	owned := 0
	for e, vi := range tab.sets.vocab {
		v := tab.sets.elems[vi]
		if v.hash != e {
			t.Fatalf("vocabulary maps %x to element %d holding %x", e, vi, v.hash)
		}
		if v.bit == noBit {
			continue
		}
		owned++
		if tab.sets.owner[v.bit] != vi || slices.Contains(tab.sets.free, v.bit) {
			t.Fatalf("bit %d: vocabulary, owner table and free list disagree", v.bit)
		}
	}
	if owned+len(tab.sets.free) != setBits {
		t.Fatalf("%d owned + %d free bits, want %d", owned, len(tab.sets.free), setBits)
	}
}

// fuzzElems maps fuzz bytes to set elements: the low values name
// elements shared with the stored sets, the high ones elements the
// table has never seen.
func fuzzElems(data []byte, unknown string) []string {
	var out []string
	for _, b := range data {
		if b < 200 {
			out = append(out, fmt.Sprintf("e%d", b%150))
		} else {
			out = append(out, fmt.Sprintf("%s%d", unknown, b))
		}
	}
	return out
}

// FuzzSetJaccard: for arbitrary element lists, the bitset-plus-overflow
// Jaccard equals the sorted-hash oracle bit for bit. bulk interns one
// large set first, pushing later elements past the bitset cap into
// the overflow; releasing it mid-run frees bits for reuse. Stored
// lists are 0xff-separated; duplicates and empty sets occur naturally.
func FuzzSetJaccard(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte{1, 2, 2, 3, 0xff, 3, 4}, []byte{2, 3, 3, 210}, uint16(0))
	f.Add([]byte{1, 2, 0xff, 0xff, 5}, []byte{}, uint16(600))
	f.Add([]byte{7, 8, 9, 0xff, 7}, []byte{7, 250, 251}, uint16(1500))
	f.Fuzz(func(t *testing.T, stored, query []byte, bulk uint16) {
		var p setPool
		p.init()
		var big []string
		for i := 0; i < int(bulk%2000); i++ {
			// Half the bulk names collide with the small-element space
			// so some stored elements are forced into the overflow.
			big = append(big, fmt.Sprintf("e%d", 150+i), fmt.Sprintf("bulk%d", i))
		}
		bigID := p.intern(sortedHashSet(big))
		var lists [][]string
		var ids []uint32
		for i, part := range splitBytes(stored, 0xff) {
			l := fuzzElems(part, "s")
			if i%2 == 1 && len(big) > 0 {
				l = append(l, big[i%len(big)])
			}
			lists = append(lists, l)
			ids = append(ids, p.intern(sortedHashSet(l)))
			if i == 1 {
				p.release(bigID)
				bigID = 0
			}
		}
		for i, l := range lists {
			again := p.intern(sortedHashSet(l))
			if again != ids[i] {
				t.Fatalf("set %d re-interned as %d, first as %d", i, again, ids[i])
			}
			p.release(again)
			// The hit check must tell sets apart on its own: it is all
			// that stands between a content-hash collision and a wrong
			// share.
			for j, other := range lists {
				hs := sortedHashSet(other)
				if want := slices.Equal(sortedHashSet(l), hs); ids[i] != 0 && p.holds(ids[i], hs) != want {
					t.Fatalf("holds(set %d, set %d) = %v, want %v", i, j, !want, want)
				}
			}
		}
		qs := sortedHashSet(fuzzElems(query, "unknown"))
		var q querySet
		p.probe(qs, &q)
		for i, l := range lists {
			got := p.jaccard(ids[i], &q)
			want := jaccardSorted(sortedHashSet(l), qs)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("set %d %q vs query %q: jaccard %v, oracle %v", i, l, fuzzElems(query, "unknown"), got, want)
			}
		}
		for _, id := range ids {
			p.release(id)
		}
		p.release(bigID)
		if p.idx.live() != 0 || len(p.vocab) != 0 || len(p.free) != setBits {
			t.Fatalf("pool not empty after releasing every set: %d sets, %d vocabulary, %d free bits",
				p.idx.live(), len(p.vocab), len(p.free))
		}
	})
}

// splitBytes splits b on sep, keeping empty parts (empty sets).
func splitBytes(b []byte, sep byte) [][]byte {
	var out [][]byte
	start := 0
	for i, c := range b {
		if c == sep {
			out = append(out, b[start:i])
			start = i + 1
		}
	}
	return append(out, b[start:])
}
