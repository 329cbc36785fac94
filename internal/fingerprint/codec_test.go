package fingerprint

import (
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// DecodeRecord decodes one payload holding exactly one record.
func DecodeRecord(b []byte) (*Record, error) {
	var d Decoder
	d.Reset(b)
	r := d.Record()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

func codecRecords() []*Record {
	empty := sample()
	empty.HeaderList = []string{}
	empty.Plugins = nil
	empty.Languages = []string{""}
	empty.Fonts = []string{}
	empty.TimezoneOffset = -300
	empty.UserAgent = ""
	return []*Record{
		{Time: time.Date(2018, 1, 15, 10, 30, 0, 0, time.UTC), UserID: "ab12cd34", Cookie: "ck-0001", FP: sample(), Browser: "Chrome", OS: "Windows"},
		{Time: time.Date(2018, 3, 2, 23, 59, 59, 123456789, time.FixedZone("", 2*3600)), UserID: "u", FP: empty, Mobile: true, Device: "SM-G930F"},
		{Time: time.Date(2017, 12, 1, 0, 0, 0, 0, time.FixedZone("", -(9*3600+30*60))), UserID: "u2", Cookie: "c"},
		{},
	}
}

// The binary codec must hand back exactly what the JSON path hands
// back — nil vs empty lists, the zone of a non-UTC client timestamp —
// so recovery from either format yields the same records.
func TestRecordBinaryMatchesJSON(t *testing.T) {
	for i, r := range codecRecords() {
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON Record
		if err := json.Unmarshal(js, &viaJSON); err != nil {
			t.Fatal(err)
		}
		viaBin, err := DecodeRecord(AppendRecord(nil, r))
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(*viaBin, viaJSON) {
			t.Fatalf("record %d: binary %+v\nJSON %+v", i, viaBin, viaJSON)
		}
	}
}

func TestDecodeRecordError(t *testing.T) {
	good := AppendRecord(nil, codecRecords()[0])
	cases := map[string][]byte{
		"empty":       nil,
		"json":        []byte(`{"t":"2018-01-01T00:00:00Z"}`),
		"version":     append([]byte{RecordVersion + 1}, good[1:]...),
		"truncated":   good[:len(good)-1],
		"trailing":    append(append([]byte(nil), good...), 0),
		"huge length": {RecordVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
	}
	for name, b := range cases {
		if _, err := DecodeRecord(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// The intern table shares repeated strings across records and stays
// bounded.
func TestDecoderInternsAndBounds(t *testing.T) {
	var d Decoder
	var recs []*Record
	for i := 0; i < 2; i++ {
		d.Reset(AppendRecord(nil, codecRecords()[0]))
		recs = append(recs, d.Record())
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if unsafe.StringData(recs[0].FP.UserAgent) != unsafe.StringData(recs[1].FP.UserAgent) {
		t.Fatal("user agent not interned")
	}
	if unsafe.StringData(recs[0].UserID) == unsafe.StringData(recs[1].UserID) {
		t.Fatal("user ID interned; identifiers must be copied")
	}
	for i := 0; i < 3*maxInterned; i++ {
		b := AppendString(nil, "s"+strconv.Itoa(i))
		d.Reset(b)
		d.Intern()
		if len(d.strs) > maxInterned {
			t.Fatalf("intern table grew to %d", len(d.strs))
		}
	}
	// Bytes are bounded too: long strings are copied, not kept, and
	// many mid-sized ones clear the table before it passes its budget.
	held := d.InternedBytes()
	for _, n := range []int{maxInternLen + 1, maxInternLen} {
		for i := 0; i < 4*maxInternedBytes/n; i++ {
			s := (strconv.Itoa(i) + strings.Repeat("x", n))[:n]
			d.Reset(AppendString(nil, s))
			if got := d.Intern(); got != s {
				t.Fatalf("interned %d bytes as %d", n, len(got))
			}
			if n > maxInternLen && d.InternedBytes() != held {
				t.Fatalf("a %d-byte string was interned", n)
			}
			if d.InternedBytes() > maxInternedBytes {
				t.Fatalf("intern table holds %d bytes", d.InternedBytes())
			}
		}
	}
}

func FuzzDecodeRecord(f *testing.F) {
	for _, r := range codecRecords() {
		f.Add(AppendRecord(nil, r), "s", 60, int32(7200), int64(1514764800), uint32(5), uint16(0))
	}
	f.Add([]byte{RecordVersion, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, "", -720, int32(-34200), int64(-1), uint32(999999999), uint16(0x2aa))
	f.Fuzz(func(t *testing.T, data []byte, s string, tz int, off int32, sec int64, nsec uint32, flags uint16) {
		// Arbitrary bytes: no panic, and every decoded list is shorter
		// than the input that described it.
		if r, err := DecodeRecord(data); err == nil && r.FP != nil {
			for _, l := range [][]string{r.FP.HeaderList, r.FP.Plugins, r.FP.Languages, r.FP.Fonts} {
				if len(l) >= len(data) {
					t.Fatalf("list of %d from %d input bytes", len(l), len(data))
				}
			}
		}

		// Round trip of a record built from the inputs.
		sec %= 1 << 40
		loc := time.UTC
		if off != 0 {
			loc = time.FixedZone("", int(off))
		}
		r := &Record{Time: time.Unix(sec, int64(nsec%1e9)).In(loc), UserID: s, Cookie: s + "c", Mobile: flags&2 != 0}
		if flags&1 == 0 {
			fp := sample()
			fp.UserAgent, fp.IPAddr = s, s
			fp.TimezoneOffset = tz
			lists := []*[]string{&fp.HeaderList, &fp.Plugins, &fp.Languages, &fp.Fonts}
			for i, l := range lists {
				switch (flags >> (2 + 2*i)) & 3 {
				case 0:
					*l = nil
				case 1:
					*l = []string{}
				case 2:
					*l = []string{s, ""}
				}
			}
			r.FP = fp
		}
		got, err := DecodeRecord(AppendRecord(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Time.Equal(r.Time) {
			t.Fatalf("time %v, want %v", got.Time, r.Time)
		}
		if _, o := got.Time.Zone(); o != int(off) {
			t.Fatalf("zone offset %d, want %d", o, off)
		}
		got.Time, r.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip\n got %+v\nwant %+v", got, r)
		}
	})
}
