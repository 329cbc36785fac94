package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// tracer records the traced run's CPU profile and runtime GC figures
// over the measured phase. A nil *tracer (tracing off) does nothing.
type tracer struct {
	path    string
	f       *os.File
	gcCPU0  float64
	pauseNs uint64
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

func readGCCPU() float64 {
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func pauseTotalNs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.PauseTotalNs
}

func startTrace(e *env) (*tracer, error) {
	if !e.trace {
		return nil, nil
	}
	t := &tracer{path: filepath.Join(e.work, "cpu.pprof")}
	f, err := os.Create(t.path)
	if err != nil {
		return nil, err
	}
	t.f = f
	t.gcCPU0, t.pauseNs = readGCCPU(), pauseTotalNs()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// stop ends the profile and adds the runtime.* and <module>.cpu_share
// layer metrics.
func (t *tracer) stop(layers map[string]float64) error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	layers["runtime.gc_cpu_s"] = readGCCPU() - t.gcCPU0
	layers["runtime.gc_pause_ms"] = float64(pauseTotalNs()-t.pauseNs) / 1e6
	if err := t.f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(t.path)
	if err != nil {
		return err
	}
	shares, err := cpuShares(data)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for mod, s := range shares {
		layers[mod+".cpu_share"] = s
	}
	return nil
}

// profiledModules are the layers a CPU sample is attributed to, by
// the package of its leaf frame. "codec" is encoding/json plus the
// record codec of internal/fingerprint.
var profiledModules = []string{
	"population", "browserid", "diff", "dynamics", "extsort", "fpstalker",
	"mlearn", "linkd", "collector", "storage", "codec",
}

func moduleOf(fn string) string {
	// Strip the receiver/function part: the package path ends at the
	// first '.' after the last '/'.
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "encoding/json", pkg == "fpdyn/internal/fingerprint":
		return "codec"
	case strings.HasPrefix(pkg, "fpdyn/internal/"):
		return strings.TrimPrefix(pkg, "fpdyn/internal/")
	}
	return ""
}

// cpuShares reads a gzipped pprof CPU profile and returns, for each of
// profiledModules, the share of samples whose leaf frame lies in it.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		loc := p.locLeafFn[s.locs[0]]
		if mod := moduleOf(p.strings[p.fnName[loc]]); mod != "" {
			counts[mod] += n
		}
	}
	out := map[string]float64{}
	for _, m := range profiledModules {
		if total > 0 {
			out[m] = float64(counts[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out, nil
}

// profile is the subset of profile.proto the share needs.
type profile struct {
	samples   []profSample
	locLeafFn map[uint64]uint64 // location id → function id of its innermost line
	fnName    map[uint64]int64  // function id → string table index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed profile")

// pbReader walks protobuf wire format.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field returns the next field number, wire type, varint value (wire
// type 0) or payload (wire type 2); fixed-width fields are skipped.
func (r *pbReader) field() (num int, wt int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return num, wt, v, payload, err
}

// repeatedUint appends a repeated integer field, packed or not.
func repeatedUint(dst []uint64, wt int, v uint64, payload []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	r := &pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLeafFn: map[uint64]uint64{}, fnName: map[uint64]int64{}}
	r := &pbReader{b}
	for len(r.b) > 0 {
		num, _, _, payload, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s profSample
			sr := &pbReader{payload}
			for len(sr.b) > 0 {
				n, w, v, pl, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeatedUint(s.locs, w, v, pl); err != nil {
						return nil, err
					}
				case 2:
					var vals []uint64
					if vals, err = repeatedUint(nil, w, v, pl); err != nil {
						return nil, err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var leaf uint64
			haveLine := false
			lr := &pbReader{payload}
			for len(lr.b) > 0 {
				n, _, v, pl, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if haveLine {
						continue
					}
					ln := &pbReader{pl}
					for len(ln.b) > 0 {
						f, _, fv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if f == 1 {
							leaf, haveLine = fv, true
						}
					}
				}
			}
			p.locLeafFn[id] = leaf
		case 5: // Function
			var id uint64
			var name int64
			fr := &pbReader{payload}
			for len(fr.b) > 0 {
				n, _, v, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.fnName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(payload))
		}
	}
	for _, idx := range p.fnName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
