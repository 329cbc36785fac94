package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/fpstalker"
	"fpdyn/internal/population"
)

// Every input is a pure function of the run seed. The simulated
// populations use the sharded simulation path on nproc workers, whose
// output does not depend on the worker count.

// populationConfig is the default calibrated world of users users for
// seed.
func populationConfig(seed int64, users int) population.Config {
	cfg := population.DefaultConfig(users)
	cfg.Seed = seed
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// trainSeed derives the seed of the forest-training population, a
// different world from the one that is linked.
func trainSeed(seed int64) int64 { return seed*1_000_003 + 17 }

// labelled is a time-ordered record stream with its true instances.
type labelled struct {
	recs      []*fingerprint.Record
	instances []int
}

func simulate(seed int64, users int) labelled {
	ds := population.Simulate(populationConfig(seed, users))
	return labelled{recs: ds.Records, instances: ds.TrueInstance}
}

// linkSplit is the link-query input: a table of earlier observations
// added under fpstalker.InstanceID, and the held-out later records of
// the same population as queries.
type linkSplit struct {
	train      labelled
	tableIDs   []string
	tableRecs  []*fingerprint.Record
	queries    []*fingerprint.Record
	queryInst  []int
	inTable    map[int]bool
	queryOrder []int // the order queries are sent in, from the seed
}

func makeLinkSplit(seed int64, users, trainUsers int, tableFrac float64) *linkSplit {
	pop := simulate(seed, users)
	cut := int(float64(len(pop.recs)) * tableFrac)
	s := &linkSplit{train: simulate(trainSeed(seed), trainUsers), inTable: map[int]bool{}}
	for i := 0; i < cut; i++ {
		s.tableIDs = append(s.tableIDs, fpstalker.InstanceID(pop.instances[i]))
		s.tableRecs = append(s.tableRecs, pop.recs[i])
		s.inTable[pop.instances[i]] = true
	}
	// Copies, so that dropping the table records after the build frees
	// them: a subslice would keep the whole population reachable.
	s.queries = append([]*fingerprint.Record(nil), pop.recs[cut:]...)
	s.queryInst = append([]int(nil), pop.instances[cut:]...)
	s.queryOrder = rand.New(rand.NewSource(seed)).Perm(len(s.queries))
	return s
}

// digest hashes the split's inputs; equal seeds give equal digests.
func (s *linkSplit) digest() string {
	h := sha256.New()
	writeLabelled(h, s.train)
	for i, r := range s.tableRecs {
		h.Write([]byte(s.tableIDs[i]))
		writeRecord(h, r)
	}
	for i, r := range s.queries {
		writeRecord(h, r)
		binary.Write(h, binary.LittleEndian, int64(s.queryInst[i]))
	}
	for _, i := range s.queryOrder {
		binary.Write(h, binary.LittleEndian, int64(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

type hashWriter interface{ Write([]byte) (int, error) }

func writeRecord(h hashWriter, r *fingerprint.Record) {
	b, _ := json.Marshal(r) // a Record always encodes
	h.Write(b)
}

func writeLabelled(h hashWriter, l labelled) {
	for i, r := range l.recs {
		writeRecord(h, r)
		binary.Write(h, binary.LittleEndian, int64(l.instances[i]))
	}
}

// poissonArrivals returns the arrival offsets of a Poisson process of
// the given rate over dur, drawn from rng.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// evictBoundaries returns the record-time instants at which the replay
// runs the collect-window evictor: every `every` from the first record.
func evictBoundaries(recs []*fingerprint.Record, every time.Duration) []time.Time {
	if len(recs) == 0 {
		return nil
	}
	var out []time.Time
	last := recs[len(recs)-1].Time
	for b := recs[0].Time.Add(every); !b.After(last); b = b.Add(every) {
		out = append(out, b)
	}
	return out
}

// recordDigest is an order-independent digest of a record multiset:
// the sorted per-record hashes, hashed.
func recordDigest(recs []*fingerprint.Record) string {
	sums := make([]string, len(recs))
	for i, r := range recs {
		b, _ := json.Marshal(r)
		s := sha256.Sum256(b)
		sums[i] = string(s[:])
	}
	sort.Strings(sums)
	h := sha256.New()
	for _, s := range sums {
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}
