package linkd

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"fpdyn/internal/fpstalker"
)

// FuzzDecodeRequest: every frame off the wire funnels through
// DecodeRequest, so arbitrary bytes must never panic and must yield
// exactly one of (typed error) or (request satisfying every protocol
// invariant the dispatcher relies on). Mirrors storage's
// FuzzDecodeSegment: seed with valid messages, let the fuzzer corrupt
// them.
func FuzzDecodeRequest(f *testing.F) {
	seed := func(req *Request) {
		payload, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	rec := testRecord(1, tBase)
	seed(&Request{Type: TypeHello, Framing: "binary"})
	seed(&Request{Type: TypePing})
	seed(&Request{Type: TypeAdd, ID: "i1", Record: rec})
	seed(&Request{Type: TypeQuery, Record: rec, K: 5, DeadlineMS: 250})
	seed(&Request{Type: TypeQuery, Record: rec}) // k defaulting path
	f.Add([]byte(`{"type":"query","k":1000000,"record":{"fp":{}}}`))
	f.Add([]byte(`{"type":"query","deadline_ms":-1,"record":{"fp":{}}}`))
	f.Add([]byte(`{"type":"query","deadline_ms":999999999,"record":{"fp":{}}}`))
	f.Add([]byte(`{"type":"add","id":"","record":{"fp":{}}}`))
	f.Add([]byte(`{"type":"add","id":"x"}`))
	f.Add([]byte(`{"type":""}`))
	f.Add([]byte(`{"type":"reboot"}`))
	f.Add([]byte(`{"type":`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	far := testRecord(1, time.Date(2602, 9, 21, 0, 0, 0, 0, time.UTC))
	seed(&Request{Type: TypeAdd, ID: "i2", Record: far})
	seed(&Request{Type: TypeQuery, Record: far})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data) // must not panic
		if err != nil {
			if req != nil {
				t.Fatalf("error %v with non-nil request %+v", err, req)
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("error not wrapped in ErrBadRequest: %v", err)
			}
			return
		}
		if req == nil {
			t.Fatal("nil request with nil error")
		}
		switch req.Type {
		case TypeHello, TypePing:
		case TypeAdd:
			if req.ID == "" || req.Record == nil || req.Record.FP == nil {
				t.Fatalf("underspecified add passed validation: %+v", req)
			}
			if tm := req.Record.Time; !tm.IsZero() && !fpstalker.TimeInRange(tm) {
				t.Fatalf("add with out-of-range time %v passed validation", tm)
			}
		case TypeQuery:
			if req.Record == nil || req.Record.FP == nil {
				t.Fatalf("query without record passed validation: %+v", req)
			}
			if tm := req.Record.Time; !tm.IsZero() && !fpstalker.TimeInRange(tm) {
				t.Fatalf("query with out-of-range time %v passed validation", tm)
			}
			if req.K < 1 || req.K > MaxK {
				t.Fatalf("query k %d outside [1, %d]", req.K, MaxK)
			}
			if req.DeadlineMS < 0 || req.DeadlineMS > MaxDeadlineMS {
				t.Fatalf("query deadline %d outside [0, %d]", req.DeadlineMS, MaxDeadlineMS)
			}
		default:
			t.Fatalf("unknown type %q passed validation", req.Type)
		}
	})
}

// TestDecodeRequestRejectsOutOfRangeTime: an add or query whose record
// time is set but outside Unix-nanosecond range is a bad request — the
// linkers would otherwise see it as no time at all. The zero time and
// the range's edges stay valid.
func TestDecodeRequestRejectsOutOfRangeTime(t *testing.T) {
	for _, tc := range []struct {
		at   time.Time
		okay bool
	}{
		{time.Date(2602, 9, 21, 0, 0, 0, 0, time.UTC), false},
		{time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), false},
		{time.Unix(0, 1<<63-1), true},
		{time.Unix(0, -1<<63), true},
		{tBase, true},
		{time.Time{}, true},
	} {
		for _, req := range []*Request{
			{Type: TypeAdd, ID: "i1", Record: testRecord(1, tc.at)},
			{Type: TypeQuery, Record: testRecord(1, tc.at)},
		} {
			payload, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeRequest(payload)
			if tc.okay && err != nil {
				t.Errorf("%s at %v rejected: %v", req.Type, tc.at, err)
			}
			if !tc.okay && (got != nil || !errors.Is(err, ErrBadRequest)) {
				t.Errorf("%s at %v: got (%v, %v), want ErrBadRequest", req.Type, tc.at, got, err)
			}
		}
	}
}
