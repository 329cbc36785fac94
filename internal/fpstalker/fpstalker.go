// Package fpstalker reimplements the FP-Stalker baseline (Vastel et
// al., IEEE S&P 2018): linking evolved browser fingerprints to known
// browser instances, in both its rule-based and learning-based
// variants. The paper under reproduction evaluates FP-Stalker at
// dataset scale and finds that both variants degrade badly — matching
// time grows linearly with the database (Figure 9) and F1 falls
// (Figure 10) — and documents characteristic false positives/negatives
// (Figure 11). This package reproduces the algorithms and the
// evaluation harness behind those figures, and adds the blocked,
// parallel matching engine (engine.go) that removes the Figure 9 wall
// while returning identical rankings.
package fpstalker

import (
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/useragent"
)

// Candidate is one ranked linking candidate.
type Candidate struct {
	ID    string
	Score float64
}

// Linker is the common interface of both variants.
type Linker interface {
	// TopK returns up to k candidate browser IDs for the query, ranked
	// best first. An empty result means "new browser instance".
	TopK(rec *fingerprint.Record, k int) []Candidate
	// Add registers rec as the latest fingerprint of instance id.
	Add(id string, rec *fingerprint.Record)
	// Len returns the number of known instances.
	Len() int
}

// DynamicLinker extends Linker with the operations a long-running
// service needs: cancellable queries, entry eviction, and a canonical
// index digest for crash-recovery verification. Both variants
// implement it.
type DynamicLinker interface {
	Linker
	// TopKCtx is TopK with cooperative cancellation: a ctx that expires
	// mid-scan aborts the scoring workers within a bounded number of
	// candidates and returns ctx's error. A nil ctx never cancels and
	// adds no overhead.
	TopKCtx(ctx context.Context, rec *fingerprint.Record, k int) ([]Candidate, error)
	// Remove evicts id's entry from the table and every index,
	// reporting whether the instance was known.
	Remove(id string) bool
	// IndexDigest returns a canonical hash of the entry table and the
	// blocking index — equal digests mean identical rankings for every
	// query.
	IndexDigest() string
}

// entry is one fingerprint reduced to what linking consults — the
// structured UA, the canonical feature keys, the set features' sorted
// element hashes and the handful of scalars the rules read — computed
// once per Add or query instead of once per candidate pair. Re-deriving
// them per pair (two regex parses plus ~30 Value.Key builds, several of
// which hash whole font lists) is O(candidates) redundant work per
// query, the dominant term of the paper's Figure 9 wall.
//
// An entry is transient and pooled (getEntry). Add builds one outside
// the engine lock and interns it into a row of the SoA table
// (store.go); a query builds one, and the learning linker probes its
// sets against the table's set vocabulary under the read lock
// (soa.probe). Scorers then compare the query entry with candidate
// rows in place. No entry outlives its call, and none retains the
// *fingerprint.Record.
type entry struct {
	uaStr string        // verbatim UserAgent (unparseable-agent rule, raw index)
	ua    *useragent.UA // &uaVal when the agent parsed, else nil
	uaVal useragent.UA
	keys  []uint64 // hashed non-IP feature keys, in Schema order

	// hrs is the record time as fractional hours since the Unix epoch
	// and timeNS the same instant in Unix nanoseconds — the recency
	// nudge reads the first, the pair model's time-gap feature and the
	// index digest the second. Both are only meaningful when hasTime
	// is set (see entry.fill).
	hrs    float64
	timeNS int64

	// fpHash is FP.Hash(false) — the digest/exact-index bucket key.
	// eqHash (FP.Hash(true)) and fontsHash (order-independent font
	// multiset hash) are the pair fingerprint.Equal compares, so the
	// exact-match rule needs no record.
	fpHash    uint64
	eqHash    uint64
	fontsHash uint64

	// sets holds the sorted, deduplicated element hashes of the set
	// features the pair model takes Jaccard similarities over (empty
	// for rule entries): what the set pool interns on Add and probes on
	// a query.
	sets [numSets][]uint64

	ok           bool // ua parsed
	cookie       bool // CookieEnabled (rule 4, pair storage feature)
	localStorage bool // LocalStorage (rule 4, pair storage feature)
	hasTime      bool // record time non-zero and within UnixNano's range
}

// The set features of an entry, indexing entry.sets and hotRow.setIDs.
const (
	setFonts = iota
	setPlugins
	setLangs
	numSets
)

// minUnixNano and maxUnixNano bound the instants time.Time.UnixNano
// represents, years ≈1678 to ≈2262.
var minUnixNano, maxUnixNano = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// zeroTimeNS is UnixNano of the zero time: an out-of-range constant,
// but a deterministic one, which the digest prints for every entry
// without a usable time.
var zeroTimeNS = time.Time{}.UnixNano()

// TimeInRange reports whether t is representable in Unix nanoseconds
// (years ≈1678 to ≈2262). The linkers store record times that way;
// they treat an instant outside the range like the zero time (no
// time-gap feature, no recency nudge), and linkd rejects such records
// at decode time.
func TimeInRange(t time.Time) bool {
	return !t.Before(minUnixNano) && !t.After(maxUnixNano)
}

// newPairEntry builds rec's entry with the sorted set-feature hashes
// the pair model's Jaccard features consume.
func newPairEntry(rec *fingerprint.Record) *entry {
	e := new(entry)
	e.fill(rec, true)
	return e
}

// entryPool recycles the transient entries of Add and TopK with their
// key and set buffers: nothing interned aliases them, and building
// each afresh doubled the garbage of a table build.
var entryPool = sync.Pool{New: func() any { return new(entry) }}

// getEntry builds rec's entry on a pooled one; pair adds the set
// hashes, which only the learning linker reads. putEntry returns it
// once the caller is done.
func getEntry(rec *fingerprint.Record, pair bool) *entry {
	e := entryPool.Get().(*entry)
	e.fill(rec, pair)
	return e
}

func putEntry(e *entry) { entryPool.Put(e) }

// fill sets e from rec, reusing e's buffers.
func (e *entry) fill(rec *fingerprint.Record, pair bool) {
	fp := rec.FP
	keys, sets := e.keys, e.sets
	*e = entry{
		uaStr:        fp.UserAgent,
		keys:         appendFeatureKeys(keys[:0], fp),
		timeNS:       zeroTimeNS,
		cookie:       fp.CookieEnabled,
		localStorage: fp.LocalStorage,
	}
	e.fpHash, e.eqHash = fp.Hashes()
	e.fontsHash = e.keys[keyIdxFontList] // HashSet(fp.Fonts)
	// The zero time and instants UnixNano cannot represent both carry
	// no usable time: UnixNano would wrap the latter silently.
	if TimeInRange(rec.Time) {
		e.timeNS = rec.Time.UnixNano()
		e.hrs = float64(e.timeNS) / float64(time.Hour)
		e.hasTime = true
	}
	if ua, err := useragent.CachedParse(fp.UserAgent); err == nil {
		e.uaVal = ua
		e.ua, e.ok = &e.uaVal, true
	}
	for k := range sets {
		e.sets[k] = sets[k][:0]
	}
	if pair {
		e.sets[setFonts] = appendSortedHashSet(e.sets[setFonts], fp.Fonts)
		e.sets[setPlugins] = appendSortedHashSet(e.sets[setPlugins], fp.Plugins)
		e.sets[setLangs] = appendSortedHashSet(e.sets[setLangs], fp.Languages)
	}
}

// appendSortedHashSet appends the sorted unique element hashes of ss
// to the empty dst — a set's canonical content, which the set pool
// interns and probes.
func appendSortedHashSet(dst []uint64, ss []string) []uint64 {
	for _, s := range ss {
		dst = append(dst, hashutil.Hash64(s))
	}
	slices.Sort(dst)
	return slices.Compact(dst)
}

// nonIPSchema lists the non-IP feature descriptors in Schema order;
// rareAt marks the positions of the rarely-changing set (canvas,
// fonts, GPU renderer, GPU images).
var nonIPSchema, rareAt = func() ([]fingerprint.ID, []bool) {
	var ids []fingerprint.ID
	var rare []bool
	for _, d := range fingerprint.Schema {
		if d.IsIP {
			continue
		}
		ids = append(ids, d.ID)
		switch d.ID {
		case fingerprint.FeatCanvas, fingerprint.FeatFontList,
			fingerprint.FeatGPURenderer, fingerprint.FeatGPUImage:
			rare = append(rare, true)
		default:
			rare = append(rare, false)
		}
	}
	return ids, rare
}()

// numNonIP is the number of non-IP schema features — the denominator
// of the rule-based similarity score.
var numNonIP = len(nonIPSchema)

// Positions of the individually-compared features inside a keys
// vector. The pair model's equality features read these instead of the
// record fields: the schema's Value() canonicalization is injective
// for each (Timezone renders as the decimal offset, the rest are the
// verbatim strings), so key equality matches field equality up to the
// same ~2^-64 hash-collision odds appendFeatureKeys documents.
var keyIdxTimezone, keyIdxCanvas, keyIdxGPURenderer, keyIdxAudio,
	keyIdxScreen, keyIdxGPUImage, keyIdxFontList = func() (tz, cv, gr, au, sc, gi, fl int) {
	for i, id := range nonIPSchema {
		switch id {
		case fingerprint.FeatFontList:
			fl = i
		case fingerprint.FeatTimezone:
			tz = i
		case fingerprint.FeatCanvas:
			cv = i
		case fingerprint.FeatGPURenderer:
			gr = i
		case fingerprint.FeatAudio:
			au = i
		case fingerprint.FeatScreenResolution:
			sc = i
		case fingerprint.FeatGPUImage:
			gi = i
		}
	}
	return
}()

// appendFeatureKeys appends a 64-bit hash of the canonical key of
// every non-IP schema feature, in Schema order, to dst. Fixed-width
// hashes make the per-pair comparison ~30 integer equality checks
// instead of string compares over font-list digests; a hash collision
// misreading one differing feature as equal happens with probability
// ~2^-64 per pair, far below the noise floor of the similarity scores
// it feeds.
func appendFeatureKeys(dst []uint64, fp *fingerprint.Fingerprint) []uint64 {
	for _, id := range nonIPSchema {
		v := fp.Value(id)
		if v.Kind == fingerprint.KindSet {
			dst = append(dst, hashutil.HashSet(v.Set))
		} else {
			dst = append(dst, hashutil.Hash64(v.Str))
		}
	}
	return dst
}

// countKeyDiffs counts differing non-IP features between two
// precomputed key slices, and separately the differing members of the
// rarely-changing set.
func countKeyDiffs(a, b []uint64) (total, rare int) {
	b = b[:len(a)] // keys always share the schema length; hoist the bounds check
	for i := range a {
		if a[i] != b[i] {
			total++
			if rareAt[i] {
				rare++
			}
		}
	}
	return total, rare
}

// countKeyDiffsBudget is countKeyDiffs with the rule-based linker's
// budgets applied inline: it bails at the first feature that exceeds
// either cap, so clearly-different same-bucket entries are rejected
// without scanning the whole schema. ok=false means over budget.
func countKeyDiffsBudget(a, b []uint64, maxTotal, maxRare int) (total int, ok bool) {
	b = b[:len(a)] // keys always share the schema length; hoist the bounds check
	rare := 0
	for i := range a {
		if a[i] != b[i] {
			total++
			if total > maxTotal {
				return 0, false
			}
			if rareAt[i] {
				rare++
				if rare > maxRare {
					return 0, false
				}
			}
		}
	}
	return total, true
}

// rankBefore is the total order of candidate rankings: score
// descending, then ID ascending. IDs are unique, so the order is
// strict — serial, parallel and blocked runs all rank identically.
func rankBefore(a, b Candidate) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// sortCandidates orders best-first with a deterministic tiebreak.
func sortCandidates(cands []Candidate) {
	sort.Slice(cands, func(i, j int) bool {
		return rankBefore(cands[i], cands[j])
	})
}
