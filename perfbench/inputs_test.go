package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The benchmark's inputs are a pure function of the seed: the same seed
// gives the same input digest, another seed a different one.
func TestInputDigestFollowsSeed(t *testing.T) {
	const users, trainUsers = 60, 40
	a := makeLinkSplit(3, users, trainUsers, 0.75).digest()
	b := makeLinkSplit(3, users, trainUsers, 0.75).digest()
	c := makeLinkSplit(4, users, trainUsers, 0.75).digest()
	if a != b {
		t.Fatalf("same seed, different inputs: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 3 and 4 gave the same inputs %s", a)
	}
}

func TestArrivalsFollowSeed(t *testing.T) {
	gen := func(seed int64) []time.Duration {
		return poissonArrivals(rand.New(rand.NewSource(seed)), 500, time.Second)
	}
	if !reflect.DeepEqual(gen(1), gen(1)) {
		t.Fatal("same seed, different arrivals")
	}
	if reflect.DeepEqual(gen(1), gen(2)) {
		t.Fatal("different seeds, same arrivals")
	}
	if n := len(gen(1)); n < 400 || n > 600 {
		t.Fatalf("%d arrivals in 1s at 500/s", n)
	}
}

// The held-out seed is refused unless explicitly asked for, so it stays
// unused until a later claim is checked on it.
func TestHeldOutSeedRefused(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("PERFBENCH_HELD_OUT", "")
	if err := run("ingest", spec.HeldOutSeed, 1, false, false, "BENCHMARK.json", t.TempDir()); err == nil {
		t.Fatal("held-out seed accepted")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{10, 1}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.q {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.q)
		}
	}
}
