package fpstalker

import (
	"math/bits"
	"slices"

	"fpdyn/internal/hashutil"
	"fpdyn/internal/useragent"
)

// Refcounted intern pools for the heavy per-entry payloads. Across a
// population the expensive parts of an entry repeat massively: a few
// thousand distinct user-agent strings cover millions of browsers, and
// font/plugin/language stacks are long-tailed but highly repetitive.
// Storing each distinct payload once — and handing entries small
// integer handles — is what drops the store from ~1.5 KB to a few
// hundred bytes per entry, and shrinks the GC's pointer workload from
// O(entries) to O(distinct payloads).
//
// Three pools, all refcounted: uaPool (agent string plus its parse),
// keyPool (feature-key vectors in one flat arena) and setPool
// (font/plugin/language sets as fixed-width bitsets). Add takes a
// reference, remove/replace drops one, and a payload whose count hits
// zero frees its slot for reuse. The engine's mutex serializes every
// intern/release, and the read-locked query path only reads them, so
// the pools need no locking of their own.

// uaSlot is one interned user-agent string plus its parse, shared by
// every entry presenting that agent. Slots are allocated individually
// so &slot.ua stays valid across pool growth — the scorers read it in
// place instead of copying the parsed UA per candidate.
type uaSlot struct {
	str  string
	ua   useragent.UA
	ok   bool // str parsed
	refs int32
}

// uaPool interns user-agent strings. The parse happens once per
// distinct agent at intern time (not once per entry, and never per
// candidate).
type uaPool struct {
	byStr        map[string]uint32
	slots        []*uaSlot // index 0 reserved: 0 is the nil handle
	free         []uint32
	hits, misses uint64
}

func (p *uaPool) init() {
	p.byStr = make(map[string]uint32)
	p.slots = []*uaSlot{nil}
}

// intern returns a handle for s, taking one reference.
func (p *uaPool) intern(s string) uint32 {
	if id, ok := p.byStr[s]; ok {
		p.slots[id].refs++
		p.hits++
		return id
	}
	p.misses++
	slot := &uaSlot{str: s, refs: 1}
	if ua, err := useragent.CachedParse(s); err == nil {
		slot.ua, slot.ok = ua, true
	}
	var id uint32
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
		p.slots[id] = slot
	} else {
		p.slots = append(p.slots, slot)
		id = uint32(len(p.slots) - 1)
	}
	p.byStr[s] = id
	return id
}

// release drops one reference; the last reference frees the slot.
func (p *uaPool) release(id uint32) {
	slot := p.slots[id]
	slot.refs--
	if slot.refs > 0 {
		return
	}
	delete(p.byStr, slot.str)
	p.slots[id] = nil
	p.free = append(p.free, id)
}

// live is the number of distinct interned strings.
func (p *uaPool) live() int { return len(p.byStr) }

// internIndex is the content-addressed half shared by the key and set
// pools: a content hash → slot map whose collisions chain through the
// slots, per-slot refcounts and a free list. The pools keep the
// payloads in their own flat arenas indexed by the same slot handle;
// slot 0 is reserved as the nil handle.
type internIndex struct {
	head         map[uint64]uint32 // content hash → first slot of its chain
	slots        []internSlot
	free         []uint32
	hits, misses uint64
}

type internSlot struct {
	hash uint64
	next uint32 // next slot with the same hash; 0 ends the chain
	refs int32
}

func (x *internIndex) init() {
	x.head = make(map[uint64]uint32)
	x.slots = make([]internSlot, 1)
}

// find returns the live slot holding the payload hashed to h for which
// same reports true, taking one reference (an intern hit).
func (x *internIndex) find(h uint64, same func(id uint32) bool) (uint32, bool) {
	for id := x.head[h]; id != 0; id = x.slots[id].next {
		if same(id) {
			x.slots[id].refs++
			x.hits++
			return id, true
		}
	}
	return 0, false
}

// alloc takes a slot for a new payload hashed to h with one reference
// (an intern miss). fresh reports a slot past the end of the pool's
// arenas, which the caller must grow by one slot.
func (x *internIndex) alloc(h uint64) (id uint32, fresh bool) {
	x.misses++
	if n := len(x.free); n > 0 {
		id = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		x.slots = appendDoubling(x.slots, internSlot{})
		id, fresh = uint32(len(x.slots)-1), true
	}
	x.slots[id] = internSlot{hash: h, next: x.head[h], refs: 1}
	x.head[h] = id
	return id, fresh
}

// release drops one reference to id, reporting whether that was the
// last one — the slot is then unlinked and on the free list, and the
// caller clears its payload.
func (x *internIndex) release(id uint32) bool {
	s := &x.slots[id]
	s.refs--
	if s.refs > 0 {
		return false
	}
	if x.head[s.hash] == id {
		if s.next == 0 {
			delete(x.head, s.hash)
		} else {
			x.head[s.hash] = s.next
		}
	} else {
		p := x.head[s.hash]
		for x.slots[p].next != id {
			p = x.slots[p].next
		}
		x.slots[p].next = s.next
	}
	*s = internSlot{}
	x.free = append(x.free, id)
	return true
}

// live is the number of distinct interned payloads.
func (x *internIndex) live() int { return len(x.slots) - 1 - len(x.free) }

// keyPool interns feature-key vectors (appendFeatureKeys) by content. Every
// vector has exactly numNonIP words, so the payloads live back to back
// in one flat arena: handle id owns arena[id*numNonIP:(id+1)*numNonIP].
// A candidate scan reads a row's keys with one multiply and no slice
// header, which is what keeps countKeyDiffs at memory speed.
type keyPool struct {
	idx   internIndex
	arena []uint64
}

func (p *keyPool) init() {
	p.idx.init()
	p.arena = make([]uint64, numNonIP)
}

// intern returns a handle for keys (numNonIP words), taking one
// reference. keys is copied on a miss, never retained.
func (p *keyPool) intern(keys []uint64) uint32 {
	h := hashutil.HashUint64s(keys)
	if id, ok := p.idx.find(h, func(id uint32) bool { return slices.Equal(p.row(id), keys) }); ok {
		return id
	}
	id, fresh := p.idx.alloc(h)
	if fresh {
		p.arena = appendDoubling(p.arena, keys...)
	} else {
		copy(p.row(id), keys)
	}
	return id
}

// release drops one reference to id.
func (p *keyPool) release(id uint32) { p.idx.release(id) }

// row resolves a handle to its key vector, aliasing the arena.
func (p *keyPool) row(id uint32) []uint64 {
	o := int(id) * numNonIP
	return p.arena[o : o+numNonIP : o+numNonIP]
}

// bytes is the arena payload held by live vectors.
func (p *keyPool) bytes() int64 { return int64(8 * numNonIP * p.idx.live()) }

// setBits is the width of an interned set's bitset: every element of
// the table-wide vocabulary that owns a bit is one bit. Browser font
// lists come from probing a fixed candidate list, so the vocabulary is
// small — 311 fonts, 11 plugins and 16 languages across 152,773
// records of a 50k-user world — and 512 bits hold all three with room
// to spare. The width is a constant, not an option: sets arrive from
// clients, and a fixed width bounds every set's footprint whatever
// they send. Elements past the cap spill to a per-set overflow list.
const setBits = 512

const setWords = setBits / 64

// bitset is one interned set's (or one query set's) membership bits.
type bitset [setWords]uint64

func (b *bitset) set(i uint16)      { b[i>>6] |= 1 << (i & 63) }
func (b *bitset) has(i uint16) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// noBit marks a vocabulary element that owns no bit: it was first seen
// while every bit was taken, so the sets holding it list it in their
// overflow instead.
const noBit = ^uint16(0)

// vocabEntry is one element of the set pool's vocabulary: its hash,
// the bit it owns (or noBit) and the number of live interned sets
// holding it.
type vocabEntry struct {
	hash uint64
	refs int32
	bit  uint16
}

// setSlot is one interned set's non-bit payload: its element count
// and the sorted element hashes that own no bit.
type setSlot struct {
	n    int32
	over []uint64
}

// setPool interns the font, plugin and language sets the pair model
// takes Jaccard similarities over. A set is its sorted unique element
// hashes (appendSortedHashSet); the pool stores it as a bitset over a
// refcounted per-table vocabulary plus an overflow list for elements
// without a bit, so a pair's Jaccard is one popcount over setWords
// words (plus, rarely, a merge of two short overflow lists).
//
// Exactness: an element's representation is fixed while any live set
// holds it — its bit is assigned at first sight and freed only when
// its last set goes — so a stored set and a query probed against the
// same vocabulary agree element by element, and the intersection and
// union counts equal those of the sorted-hash merge walk.
type setPool struct {
	idx       internIndex
	bits      []bitset          // per slot; slot 0 is the empty set
	sets      []setSlot         // per slot
	vocab     map[uint64]uint32 // element hash → index into elems
	elems     []vocabEntry
	freeElems []uint32
	owner     [setBits]uint32 // elems index owning each bit (release walks it)
	free      []uint16        // unowned bits
}

func (p *setPool) init() {
	p.idx.init()
	p.bits = make([]bitset, 1)
	p.sets = make([]setSlot, 1)
	p.vocab = make(map[uint64]uint32)
	p.free = make([]uint16, setBits)
	for i := range p.free {
		p.free[i] = uint16(setBits - 1 - i) // pop bit 0 first
	}
}

// intern returns a handle for the sorted unique element hashes hs,
// taking one reference; an empty set is handle 0 and counts as neither
// hit nor miss. A hit is verified exactly by membership, so only a
// miss builds a bitset.
func (p *setPool) intern(hs []uint64) uint32 {
	if len(hs) == 0 {
		return 0
	}
	h := hashutil.HashUint64s(hs)
	if id, ok := p.idx.find(h, func(id uint32) bool { return p.holds(id, hs) }); ok {
		return id
	}
	id, fresh := p.idx.alloc(h)
	if fresh {
		p.bits = appendDoubling(p.bits, bitset{})
		p.sets = appendDoubling(p.sets, setSlot{})
	}
	b, s := &p.bits[id], &p.sets[id]
	s.n = int32(len(hs))
	for _, e := range hs {
		vi, ok := p.vocab[e]
		if !ok {
			vi = p.addElem(e)
		}
		v := &p.elems[vi]
		v.refs++
		if v.bit != noBit {
			b.set(v.bit)
		} else {
			s.over = append(s.over, e)
		}
	}
	return id
}

// addElem enters element e into the vocabulary with no references,
// giving it a free bit if one is left.
func (p *setPool) addElem(e uint64) uint32 {
	var vi uint32
	if n := len(p.freeElems); n > 0 {
		vi = p.freeElems[n-1]
		p.freeElems = p.freeElems[:n-1]
	} else {
		p.elems = appendDoubling(p.elems, vocabEntry{})
		vi = uint32(len(p.elems) - 1)
	}
	v := vocabEntry{hash: e, bit: noBit}
	if n := len(p.free); n > 0 {
		v.bit = p.free[n-1]
		p.free = p.free[:n-1]
		p.owner[v.bit] = vi
	}
	p.elems[vi] = v
	p.vocab[e] = vi
	return vi
}

// holds reports whether slot id is exactly the set hs.
func (p *setPool) holds(id uint32, hs []uint64) bool {
	if int(p.sets[id].n) != len(hs) {
		return false
	}
	b := &p.bits[id]
	for _, e := range hs {
		vi, ok := p.vocab[e]
		if !ok {
			return false
		}
		if bit := p.elems[vi].bit; bit != noBit {
			if !b.has(bit) {
				return false
			}
		} else if _, found := slices.BinarySearch(p.sets[id].over, e); !found {
			return false
		}
	}
	return true
}

// release drops one reference to id; the last one drops the set's
// vocabulary references, freeing the bits of elements no other set
// holds.
func (p *setPool) release(id uint32) {
	if id == 0 || !p.idx.release(id) {
		return
	}
	for w, word := range p.bits[id] {
		for word != 0 {
			p.unref(p.owner[w*64+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	for _, e := range p.sets[id].over {
		p.unref(p.vocab[e])
	}
	p.bits[id] = bitset{}
	p.sets[id] = setSlot{}
}

// unref drops one reference to vocabulary element vi; the last one
// removes it and frees its bit.
func (p *setPool) unref(vi uint32) {
	v := &p.elems[vi]
	if v.refs--; v.refs > 0 {
		return
	}
	delete(p.vocab, v.hash)
	if v.bit != noBit {
		p.free = append(p.free, v.bit)
	}
	*v = vocabEntry{}
	p.freeElems = append(p.freeElems, vi)
}

// querySet is a query's set in the pool's representation, built
// without interning (probe) so the read-locked query path never
// mutates the vocabulary.
type querySet struct {
	bits bitset
	n    int
	over []uint64 // sorted hashes owning no bit, incl. ones unknown to the table
}

// probe renders the sorted unique hashes hs against the vocabulary.
// An element unknown to the table lands in the overflow, where no
// stored set can hold it, so it only ever counts toward the union.
func (p *setPool) probe(hs []uint64, q *querySet) {
	*q = querySet{n: len(hs)}
	for _, e := range hs {
		if vi, ok := p.vocab[e]; ok {
			if bit := p.elems[vi].bit; bit != noBit {
				q.bits.set(bit)
				continue
			}
		}
		q.over = append(q.over, e)
	}
}

// jaccard is the Jaccard similarity of stored set id and a probed
// query set — 1 when both are empty, else |A∩B| / (|A|+|B|−|A∩B|) over
// the same integers the sorted-hash merge walk counts, so the result
// is bit-identical to it.
func (p *setPool) jaccard(id uint32, q *querySet) float64 {
	s := &p.sets[id]
	n := int(s.n)
	if n == 0 && q.n == 0 {
		return 1
	}
	a := &p.bits[id]
	inter := 0
	for w := range a {
		inter += bits.OnesCount64(a[w] & q.bits[w])
	}
	if len(s.over) > 0 && len(q.over) > 0 {
		inter += countCommon(s.over, q.over)
	}
	return float64(inter) / float64(n+q.n-inter)
}

// countCommon counts the elements two sorted unique lists share.
func countCommon(a, b []uint64) int {
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
	return inter
}

// bytes is the payload held by live sets: one bitset each plus their
// overflow lists.
func (p *setPool) bytes() int64 {
	n := int64(8 * setWords * p.idx.live())
	for _, s := range p.sets {
		n += int64(8 * len(s.over))
	}
	return n
}

// appendDoubling is append that doubles a full slice's capacity. The
// pools' arenas only grow, and append's ~1.25× steps for large slices
// would leave about four times an arena's final size behind as
// garbage during a table build.
func appendDoubling[T any](s []T, v ...T) []T {
	if cap(s)-len(s) < len(v) {
		s = slices.Grow(s, max(len(v), len(s)))
	}
	return append(s, v...)
}

// keyReg assigns small stable integer handles to blocking-bucket keys
// (blockKey, famKey), so the SoA rows store a uint32 instead of two
// strings. Handles are never recycled — the key space is bounded by
// (browser family × OS family × three booleans), a few hundred values
// against millions of entries — which keeps candidate lookup a plain
// map read with no refcount bookkeeping. Handle 0 means "no such key".
type keyReg[K comparable] struct {
	byKey map[K]uint32
	keys  []K // index 0 reserved
}

func (r *keyReg[K]) init() {
	r.byKey = make(map[K]uint32)
	r.keys = make([]K, 1)
}

// id interns k, allocating a handle on first sight.
func (r *keyReg[K]) id(k K) uint32 {
	if id, ok := r.byKey[k]; ok {
		return id
	}
	r.keys = append(r.keys, k)
	id := uint32(len(r.keys) - 1)
	r.byKey[k] = id
	return id
}

// lookup resolves k without interning (the read-side query path must
// not mutate the registry under an RLock); 0 means unknown.
func (r *keyReg[K]) lookup(k K) uint32 { return r.byKey[k] }
