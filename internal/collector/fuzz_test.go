package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"sort"
	"testing"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/population"
)

// wireMessages returns one request of every framed verb, built from
// simulated records, and responses of every shape the server sends.
func wireMessages() ([]*Request, []*Response) {
	recs := population.Simulate(population.DefaultConfig(4)).Records
	var items []BatchItem
	var hashes []string
	for i, r := range recs[:min(6, len(recs))] {
		wire, refs, blobs := StripRecord(r)
		items = append(items, BatchItem{Record: wire, Refs: refs, Values: blobs, Seq: uint64(i + 1)})
		for h := range blobs {
			hashes = append(hashes, h)
		}
	}
	sort.Strings(hashes)
	it := items[0]
	reqs := []*Request{
		{Type: TypePing},
		{Type: TypeHello, Framing: binaryWire},
		{Type: TypeCheck, Hashes: hashes},
		{Type: TypeSubmit, Record: it.Record, Refs: it.Refs, Values: it.Values, ClientID: "cid-1", Seq: 7},
		{Type: TypeSubmit, Record: &fingerprint.Record{UserID: "u"}},
		{Type: TypeBatch, ClientID: "cid-1", Batch: items},
		{Type: TypeBatch, Batch: []BatchItem{{Seq: 1}}},
	}
	resps := []*Response{
		{Type: TypePong},
		{Type: TypeHello, Framing: binaryWire},
		{Type: TypeNeed, Hashes: hashes},
		{Type: TypeOK, Index: 41, Dup: true},
		{Type: TypeOK, Acks: []Ack{{Index: 3}, {Index: 4, Dup: true}, {Error: "value does not match its hash x"}}},
		{Type: TypeError, Error: "malformed request"},
	}
	return reqs, resps
}

// addCorpus seeds f with every valid payload, a few truncations of
// each, and the payloads with an oversized count spliced in.
func addCorpus(f *testing.F, payloads, oversized [][]byte) {
	for _, p := range payloads {
		f.Add(p)
		for _, n := range []int{0, 1, len(p) / 2, len(p) - 1} {
			f.Add(p[:n])
		}
	}
	for _, p := range oversized {
		f.Add(p)
	}
}

// huge is a count no payload can back.
var huge = binary.AppendUvarint(nil, 1<<62)

// checkDecoded is the property both decoders share: a payload either
// fails to decode or decodes to a value whose every list is shorter
// than the payload (no count is trusted past the bytes behind it) and
// whose encoding is exactly the payload.
func checkDecoded[M any](t *testing.T, data []byte, m *M, err error, lens []int, encode func([]byte, *M) []byte) {
	t.Helper()
	if err != nil {
		if m != nil {
			t.Fatalf("error %v with a decoded value %+v", err, m)
		}
		return
	}
	for _, n := range lens {
		if n >= max(len(data), 1) {
			t.Fatalf("list of %d from %d payload bytes", n, len(data))
		}
	}
	if again := encode(nil, m); !bytes.Equal(again, data) {
		t.Fatalf("re-encoding differs\n got %x\nwant %x", again, data)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	reqs, _ := wireMessages()
	var payloads [][]byte
	for _, r := range reqs {
		payloads = append(payloads, appendRequest(nil, r))
	}
	check := fingerprint.AppendString(nil, TypeCheck)
	batch := appendRequest(nil, &Request{Type: TypeBatch})
	submit := appendRequest(nil, &Request{Type: TypeSubmit})
	refsAt := len(fingerprint.AppendString(nil, TypeSubmit)) + 2 // after hashes and has-record
	addCorpus(f, payloads, [][]byte{
		append(check, huge...),                             // hashes
		append(batch[:len(batch)-1:len(batch)-1], huge...), // batch items
		append(submit[:refsAt:refsAt], huge...),            // refs
		append(append(submit[:refsAt:refsAt], 0), huge...), // values
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d fingerprint.Decoder
		req, err := decodeRequest(&d, data) // must not panic
		var lens []int
		if req != nil {
			lens = append(lens, len(req.Hashes), len(req.Refs), len(req.Values), len(req.Batch))
			recs := []*fingerprint.Record{req.Record}
			for _, it := range req.Batch {
				lens = append(lens, len(it.Refs), len(it.Values))
				recs = append(recs, it.Record)
			}
			// Every record the server can accept has a JSON form, so the
			// store's JSONL export can always write it.
			for _, r := range recs {
				if _, err := json.Marshal(r); err != nil {
					t.Fatalf("decoded a record JSON cannot hold: %v", err)
				}
			}
		}
		checkDecoded(t, data, req, err, lens, appendRequest)
	})
}

func FuzzDecodeResponse(f *testing.F) {
	_, resps := wireMessages()
	var payloads [][]byte
	for _, r := range resps {
		payloads = append(payloads, appendResponse(nil, r))
	}
	need := fingerprint.AppendString(nil, TypeNeed)
	ok := appendResponse(nil, &Response{Type: TypeOK})
	addCorpus(f, payloads, [][]byte{
		append(need, huge...),                     // hashes
		append(ok[:len(ok)-1:len(ok)-1], huge...), // acks
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		var d fingerprint.Decoder
		resp, err := decodeResponse(&d, data) // must not panic
		var lens []int
		if resp != nil {
			lens = []int{len(resp.Hashes), len(resp.Acks)}
		}
		checkDecoded(t, data, resp, err, lens, appendResponse)
	})
}

// TestWireRoundTrip: every message of every verb survives an
// encode/decode round trip unchanged, through one Decoder reused
// across payloads as a connection does.
func TestWireRoundTrip(t *testing.T) {
	reqs, resps := wireMessages()
	var d fingerprint.Decoder
	for _, want := range reqs {
		p := appendRequest(nil, want)
		got, err := decodeRequest(&d, p)
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !bytes.Equal(appendRequest(nil, got), p) || jsonOf(t, got) != jsonOf(t, want) {
			t.Fatalf("%s request changed in a round trip:\n got %s\nwant %s", want.Type, jsonOf(t, got), jsonOf(t, want))
		}
	}
	for _, want := range resps {
		p := appendResponse(nil, want)
		got, err := decodeResponse(&d, p)
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if jsonOf(t, got) != jsonOf(t, want) {
			t.Fatalf("%s response changed in a round trip:\n got %s\nwant %s", want.Type, jsonOf(t, got), jsonOf(t, want))
		}
	}
}

// TestWireRejectsNonCanonical: map keys out of order, duplicate keys
// and over-long varints each have a valid twin, so they are malformed.
func TestWireRejectsNonCanonical(t *testing.T) {
	ty := fingerprint.AppendString(nil, TypeSubmit)
	refs := func(keys ...string) []byte {
		p := append(append([]byte(nil), ty...), 0, 0, byte(len(keys)))
		for _, k := range keys {
			p = fingerprint.AppendString(p, k)
			p = fingerprint.AppendString(p, "h")
		}
		return append(p, 0, 0, 0, 0, 0) // values, cid, seq, framing, batch
	}
	ping := appendRequest(nil, &Request{Type: TypePing})
	var d fingerprint.Decoder
	if _, err := decodeRequest(&d, refs("fonts", "langs")); err != nil {
		t.Fatalf("sorted refs rejected: %v", err)
	}
	for name, p := range map[string][]byte{
		"unsorted keys":  refs("langs", "fonts"),
		"duplicate keys": refs("fonts", "fonts"),
		"long varint":    append(append(ping[:5:5], 0x80, 0), ping[6:]...), // hashes count 0 in two bytes
	} {
		if _, err := decodeRequest(&d, p); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
