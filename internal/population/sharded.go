package population

import (
	"math/rand"
	"sort"

	"fpdyn/internal/canvas"
	"fpdyn/internal/fingerprint"
	"fpdyn/internal/geoip"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/parallel"
)

// userSeed derives the RNG seed for one user's shard: the global seed
// folded with the hash of the stable user ID. Each user gets an
// independent stream, so shards can be simulated in any order, on any
// number of workers, and still draw exactly the same values.
func userSeed(cfg Config, u int) int64 {
	return cfg.Seed ^ int64(hashutil.Hash64(userHash(cfg.Seed, u)))
}

// userShard is one user's simulated world before merging: the
// creation-phase output and, later, the emitted per-shard records.
type userShard struct {
	instances []*instance
	devices   []*device
	out       *Dataset
}

// simulateSharded is the parallel generator behind Simulate for
// cfg.Workers != 0. It runs in three phases:
//
//  1. build every user's devices and instances concurrently, each from
//     its own userSeed sub-RNG, with shard-local serials;
//  2. renumber the local serials into the global, user-ordered
//     numbering (a serial prefix-sum pass, so the assignment is
//     independent of scheduling);
//  3. run each user's visit loop concurrently into a private shard
//     Dataset, then merge all shards into one global timeline sorted
//     by (time, instance serial) — the same order the serial visit
//     loop emits.
//
// Users never share devices and the per-instance RNG streams are keyed
// by global serial, so phases 1 and 3 are embarrassingly parallel; the
// only shared state is the geolocation DB, immutable after New, and
// the run's render cache, which locks its own maps.
func simulateSharded(cfg Config) *Dataset {
	workers := parallel.Resolve(cfg.Workers)
	geo := geoip.New(cfg.Cities)

	// Phase 1: creation, one shard per user, local serials from 0.
	shards := parallel.Map(workers, cfg.Users, func(u int) *userShard {
		rng := rand.New(rand.NewSource(userSeed(cfg, u)))
		ins, devs := buildUser(rng, cfg, geo, u, 0, 0)
		return &userShard{instances: ins, devices: devs}
	})

	// Phase 2: renumber shard-local serials into the global numbering.
	// devChange.except holds instance serials captured at creation time
	// (the Samsung self-exclusion), so it shifts with the instances.
	instBase, devBase := 0, 0
	for _, sh := range shards {
		for _, in := range sh.instances {
			in.serial += instBase
		}
		for _, dv := range sh.devices {
			dv.serial += devBase
			for i := range dv.schedule {
				if dv.schedule[i].except >= 0 {
					dv.schedule[i].except += instBase
				}
			}
		}
		instBase += len(sh.instances)
		devBase += len(sh.devices)
	}

	// Phase 3: per-shard visit loops into private Datasets. The shards
	// share the immutable Geo and the run's render cache; image stores
	// are merged afterwards (identical hash → identical content, so
	// first-wins is exact).
	renders := newRenderCache()
	parallel.ForEach(workers, len(shards), func(i int) {
		sh := shards[i]
		sh.out = &Dataset{
			Cfg:          cfg,
			CanvasImages: make(map[string]*canvas.Image),
			GPUImageInfo: make(map[string]canvas.GPUInfo),
			Geo:          geo,
			renders:      renders,
		}
		simulateVisits(cfg, sh.instances, sh.out)
	})

	// Merge: concatenate in user order, then sort the combined timeline
	// by (time, serial) — per-instance visit times strictly increase,
	// so the order is total and independent of the concatenation order.
	ds := &Dataset{
		Cfg:          cfg,
		CanvasImages: make(map[string]*canvas.Image),
		GPUImageInfo: make(map[string]canvas.GPUInfo),
		Geo:          geo,
		NumInstances: instBase,
	}
	total := 0
	for _, sh := range shards {
		total += len(sh.out.Records)
	}
	records := make([]recordRef, 0, total)
	for _, sh := range shards {
		for i := range sh.out.Records {
			records = append(records, recordRef{sh.out, i})
		}
		for h, img := range sh.out.CanvasImages {
			if _, ok := ds.CanvasImages[h]; !ok {
				ds.CanvasImages[h] = img
			}
		}
		for h, info := range sh.out.GPUImageInfo {
			if _, ok := ds.GPUImageInfo[h]; !ok {
				ds.GPUImageInfo[h] = info
			}
		}
	}
	sort.Slice(records, func(i, j int) bool {
		ri, rj := &records[i], &records[j]
		ti, tj := ri.ds.Records[ri.i].Time, rj.ds.Records[rj.i].Time
		if !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return ri.ds.TrueInstance[ri.i] < rj.ds.TrueInstance[rj.i]
	})
	ds.Records = make([]*fingerprint.Record, 0, total)
	ds.TrueInstance = make([]int, 0, total)
	ds.VisitIndex = make([]int, 0, total)
	ds.Truth = make([][]EventType, 0, total)
	for _, r := range records {
		ds.Records = append(ds.Records, r.ds.Records[r.i])
		ds.TrueInstance = append(ds.TrueInstance, r.ds.TrueInstance[r.i])
		ds.VisitIndex = append(ds.VisitIndex, r.ds.VisitIndex[r.i])
		ds.Truth = append(ds.Truth, r.ds.Truth[r.i])
	}
	return ds
}

// recordRef points at one record inside a shard's private Dataset.
type recordRef struct {
	ds *Dataset
	i  int
}
