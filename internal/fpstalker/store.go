package fpstalker

import "slices"

// The struct-of-arrays entry table. The historical layout kept one
// heap-allocated *entry per instance, each dragging a full
// *fingerprint.Record (a ~30-field struct plus its slices) — ~1.5 KB
// and dozens of GC-visible pointers per entry. The SoA table keeps
// only what scoring, digesting and indexing actually read, split by
// access pattern:
//
//   - hot:  the scalar scoring fields every candidate scan touches,
//     packed into one pointer-free 48-byte row (one cache line covers
//     a row and its neighbor);
//   - cold: the hashes and bucket handles only Add/Remove/digest and
//     the exact-match index consult;
//   - ids:  the instance IDs (the table's only GC-visible pointers
//     besides the intern pools).
//
// Heavy payloads (UA string + parse, feature-key vectors, font/plugin/
// language sets) live once in the refcounted intern pools (intern.go)
// and rows hold uint32 handles. The rule and learning scorers read a
// candidate straight off its row index: flags and times from the hot
// row, the parsed UA from its pool slot, the keys from the key arena
// and set Jaccards from the set pool's bitsets — no per-candidate copy
// of any of it. Rankings and digests stay byte-identical to the
// pointer-per-entry layout (store_test.go pins them).

// Row flag bits (hotRow.flags).
const (
	rowOK           byte = 1 << iota // UA parsed
	rowHasTime                       // record time non-zero
	rowCookie                        // CookieEnabled
	rowLocalStorage                  // LocalStorage
)

// hotRow holds the per-entry scalars the candidate scans read.
type hotRow struct {
	hrs    float64         // record time in fractional hours (recency nudge)
	timeNS int64           // record time in Unix nanoseconds (pair time gap, digest)
	uaID   uint32          // uaPool handle
	keysID uint32          // keyPool handle: non-IP feature keys
	setIDs [numSets]uint32 // setPool handles (0, the empty set, for rule entries)
	flags  byte
}

// coldRow holds the per-entry fields only mutation, digesting and the
// exact-match index read.
type coldRow struct {
	fpHash    uint64 // FP.Hash(false): digest + exact-match bucket key
	eqHash    uint64 // FP.Hash(true): the hash FP.Equal compares
	fontsHash uint64 // HashSet(Fonts): FP.Equal's font-list guard
	blockID   uint32 // keyReg handles of the row's blocking buckets
	famID     uint32
}

type soa struct {
	ids  []string
	hot  []hotRow
	cold []coldRow
	uas  uaPool
	keys keyPool
	sets setPool
}

func (t *soa) init() {
	t.uas.init()
	t.keys.init()
	t.sets.init()
}

func (t *soa) len() int { return len(t.ids) }

// appendRow adds e as a new row and returns its index.
func (t *soa) appendRow(id string, e *entry) int {
	t.ids = append(t.ids, "")
	t.hot = append(t.hot, hotRow{})
	t.cold = append(t.cold, coldRow{})
	i := len(t.ids) - 1
	t.setRow(i, id, e)
	return i
}

// reserve makes room for n more rows, and for their key vectors should
// none of them share one, so that a table built to a known size grows
// no slice step by step.
func (t *soa) reserve(n int) {
	t.ids = slices.Grow(t.ids, n)
	t.hot = slices.Grow(t.hot, n)
	t.cold = slices.Grow(t.cold, n)
	t.keys.arena = slices.Grow(t.keys.arena, n*numNonIP)
}

// setRow writes e into row i, interning its payloads (one reference
// each). The row's previous payloads must already be released.
func (t *soa) setRow(i int, id string, e *entry) {
	var flags byte
	if e.ok {
		flags |= rowOK
	}
	if e.hasTime {
		flags |= rowHasTime
	}
	if e.cookie {
		flags |= rowCookie
	}
	if e.localStorage {
		flags |= rowLocalStorage
	}
	t.ids[i] = id
	h := &t.hot[i]
	*h = hotRow{
		hrs:    e.hrs,
		timeNS: e.timeNS,
		uaID:   t.uas.intern(e.uaStr),
		keysID: t.keys.intern(e.keys),
		flags:  flags,
	}
	for k, hs := range e.sets {
		h.setIDs[k] = t.sets.intern(hs)
	}
	t.cold[i] = coldRow{fpHash: e.fpHash, eqHash: e.eqHash, fontsHash: e.fontsHash}
}

// releaseRow drops row i's intern references (before overwrite or
// removal). The eviction path runs through here: every Remove decrefs
// the interned payloads, so a payload's slot frees exactly when its
// last entry goes.
func (t *soa) releaseRow(i int) {
	h := &t.hot[i]
	t.uas.release(h.uaID)
	t.keys.release(h.keysID)
	for _, id := range h.setIDs {
		t.sets.release(id)
	}
}

// moveRow copies row from onto row to (the swap-delete fill). No
// refcounts change: the row keeps its references, it just changes
// position.
func (t *soa) moveRow(from, to int) {
	t.ids[to] = t.ids[from]
	t.hot[to] = t.hot[from]
	t.cold[to] = t.cold[from]
}

// truncate drops the last row, whose references must already be
// released or moved.
func (t *soa) truncate() {
	n := len(t.ids) - 1
	t.ids[n] = "" // release the ID string for GC
	t.ids = t.ids[:n]
	t.hot = t.hot[:n]
	t.cold = t.cold[:n]
}

// StoreStats describes the interned store's occupancy — the
// observability hook the bench harness and the refcount property test
// read.
type StoreStats struct {
	// Entries is the number of rows in the table.
	Entries int
	// UAStrings and Vectors count the distinct interned payloads
	// currently alive (each shared by every entry referencing it):
	// Vectors counts feature-key vectors plus non-empty sets.
	UAStrings int
	Vectors   int
	// VectorBytes is the payload held by the key and set pools: the
	// live key-arena slots, one bitset per live set and the sets'
	// overflow lists.
	VectorBytes int64
	// InternHits/InternMisses count intern() calls that found a shared
	// payload vs allocated a new slot, across all three pools (an empty
	// set interns as handle 0 and counts as neither). The hit rate
	// is the sharing factor the memory savings come from.
	InternHits   uint64
	InternMisses uint64
}

func (g *engine) storeStats() StoreStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return StoreStats{
		Entries:      g.tab.len(),
		UAStrings:    g.tab.uas.live(),
		Vectors:      g.tab.keys.idx.live() + g.tab.sets.idx.live(),
		VectorBytes:  g.tab.keys.bytes() + g.tab.sets.bytes(),
		InternHits:   g.tab.uas.hits + g.tab.keys.idx.hits + g.tab.sets.idx.hits,
		InternMisses: g.tab.uas.misses + g.tab.keys.idx.misses + g.tab.sets.idx.misses,
	}
}

// StoreStats reports the interned store's occupancy and intern-pool
// hit counters.
func (l *RuleLinker) StoreStats() StoreStats { return l.eng.storeStats() }

// StoreStats reports the interned store's occupancy and intern-pool
// hit counters.
func (l *LearnLinker) StoreStats() StoreStats { return l.eng.storeStats() }
