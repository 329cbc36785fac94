package diff

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// mapDiffSets is the two-map DiffSets without the equal-input fast
// path: the oracle DiffSets must match on every input.
func mapDiffSets(a, b []string) (added, deleted []string) {
	inA := make(map[string]bool, len(a))
	for _, s := range a {
		inA[s] = true
	}
	inB := make(map[string]bool, len(b))
	for _, s := range b {
		inB[s] = true
	}
	for s := range inB {
		if !inA[s] {
			added = append(added, s)
		}
	}
	for s := range inA {
		if !inB[s] {
			deleted = append(deleted, s)
		}
	}
	sort.Strings(added)
	sort.Strings(deleted)
	return added, deleted
}

// randomSet draws an unsorted list over a small alphabet, so
// duplicates are common; n == 0 yields nil or an empty slice.
func randomSet(rng *rand.Rand) []string {
	n := rng.Intn(8)
	if n == 0 && rng.Intn(2) == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + rng.Intn(6)))
	}
	return out
}

// oneChange returns a copy of s with one element replaced, added or
// removed.
func oneChange(rng *rand.Rand, s []string) []string {
	out := slices.Clone(s)
	switch k := rng.Intn(3); {
	case k == 0 && len(out) > 0:
		out[rng.Intn(len(out))] = string(rune('a' + rng.Intn(8)))
	case k == 1 && len(out) > 0:
		i := rng.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
	default:
		out = append(out, string(rune('a'+rng.Intn(8))))
	}
	return out
}

// Property: DiffSets returns exactly what the map implementation
// returns — same elements, same order, and the same nil-ness — on
// equal lists, reordered and duplicated lists, one-element changes,
// unrelated lists and every nil/empty combination.
func TestDiffSetsMatchesMapOracle(t *testing.T) {
	check := func(a, b []string) {
		t.Helper()
		ga, gd := DiffSets(a, b)
		wa, wd := mapDiffSets(a, b)
		if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gd, wd) {
			t.Fatalf("DiffSets(%#v, %#v) = %#v, %#v; map oracle %#v, %#v", a, b, ga, gd, wa, wd)
		}
	}
	empty := []string{}
	for _, p := range [][2][]string{
		{nil, nil}, {nil, empty}, {empty, nil}, {empty, empty},
		{nil, {"a"}}, {{"a"}, empty},
		{{"a", "a"}, {"a"}}, {{"b", "a"}, {"a", "b"}},
	} {
		check(p[0], p[1])
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a := randomSet(rng)
		switch i % 4 {
		case 0:
			check(a, slices.Clone(a))
		case 1:
			b := slices.Clone(a)
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			check(a, b)
		case 2:
			b := oneChange(rng, a)
			check(a, b)
			check(b, a)
		default:
			check(a, randomSet(rng))
		}
	}
}
