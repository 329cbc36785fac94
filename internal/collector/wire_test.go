package collector

// Tests for what the binary payloads changed at the protocol's edges:
// interop with peers that predate them, byte-for-byte equivalence of
// the two framings end to end, and the content-address checks both
// framings share.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/population"
	"fpdyn/internal/storage"
)

var framings = []string{FramingJSON, FramingBinary}

// dialFraming connects to addr and puts the connection in framing.
func dialFraming(t *testing.T, addr, framing string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if framing == FramingBinary {
		if f, err := c.Negotiate(); err != nil || f != FramingBinary {
			t.Fatalf("negotiate: %q, %v", f, err)
		}
	}
	return c
}

// recordDigest is an order-independent digest of the records' JSON
// forms, the digest the benchmark's ingest check compares.
func recordDigest(t *testing.T, recs []*fingerprint.Record) string {
	t.Helper()
	sums := make([]string, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
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

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLegacyBinaryHelloGetsJSON: a client from before binary payloads
// asks for the old "binary" token; the server declines it, and the
// connection goes on working over newline-JSON.
func TestLegacyBinaryHelloGetsJSON(t *testing.T) {
	_, store, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, `{"type":"hello","framing":"binary"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Type != TypeHello || resp.Framing != FramingJSON {
		t.Fatalf("legacy hello answered %+v, want framing json", resp)
	}
	c := NewClient(conn) // the legacy client carries on in newline-JSON
	if _, err := c.Submit(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if acks, err := c.SubmitBatch(batchOf(t, 3, "legacy", 1), "legacy"); err != nil || len(acks) != 3 {
		t.Fatalf("batch: %d acks, %v", len(acks), err)
	}
	if store.Len() != 4 {
		t.Fatalf("store len = %d, want 4", store.Len())
	}
}

// TestMalformedFrameHangsUp: a frame whose payload is not the binary
// encoding — here the JSON a binary client sent before — gets a
// "malformed request" reply in binary framing, then the server hangs
// up.
func TestMalformedFrameHangsUp(t *testing.T) {
	_, store, addr := startServer(t)
	conn, br := binaryConn(t, addr)
	if _, err := conn.Write(storage.AppendFrame(nil, []byte(`{"type":"ping"}`))); err != nil {
		t.Fatal(err)
	}
	expectMalformedHangUp(t, br)
	if store.Len() != 0 {
		t.Fatalf("store len = %d", store.Len())
	}
}

// binaryConn opens a raw connection to addr and switches it to binary
// frames with a hello.
func binaryConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn := rawConn(t, addr)
	if _, err := io.WriteString(conn, `{"type":"hello","framing":"`+binaryWire+`"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var hello Response
	if err := json.Unmarshal(line, &hello); err != nil || hello.Framing != binaryWire {
		t.Fatalf("hello reply %s (%v)", line, err)
	}
	return conn, br
}

// expectMalformedHangUp reads a "malformed request" reply in binary
// framing from br, then the end of the connection.
func expectMalformedHangUp(t *testing.T, br *bufio.Reader) {
	t.Helper()
	reply, err := storage.ReadFrame(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	var d fingerprint.Decoder
	resp, err := decodeResponse(&d, reply)
	if err != nil || resp.Type != TypeError || resp.Error != "malformed request" {
		t.Fatalf("reply %+v, %v; want a malformed-request error", resp, err)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after a malformed frame: %v", err)
	}
}

// TestRecordTimeOutsideRFC3339Refused: the binary encoding can carry
// times the JSON forms cannot: a year past 9999 or before 0, a zone
// offset of a day or more, or one with stray seconds. A submit or batch
// item carrying one is a malformed request, as it was on the JSON wire,
// so the store never holds a record its JSONL export cannot write. The
// edges JSON does allow are still accepted.
func TestRecordTimeOutsideRFC3339Refused(t *testing.T) {
	at := func(year, offset int) time.Time {
		return time.Date(year, 6, 1, 12, 0, 0, 0, time.FixedZone("", offset))
	}
	bad := map[string]time.Time{
		"year 10000":    at(10000, 0),
		"year -1":       at(-1, 0),
		"offset +30h":   at(2018, 30*3600),
		"offset -24h":   at(2018, -24*3600),
		"offset +1h30s": at(2018, 3600+30),
	}
	for name, tm := range bad {
		for _, verb := range []string{TypeSubmit, TypeBatch} {
			t.Run(name+"/"+verb, func(t *testing.T) {
				_, store, addr := startServer(t)
				conn, br := binaryConn(t, addr)
				rec := sampleRecord()
				rec.Time = tm
				req := &Request{Type: TypeSubmit, Record: rec}
				if verb == TypeBatch {
					req = &Request{Type: TypeBatch, ClientID: "t", Batch: []BatchItem{{Record: rec, Seq: 1}}}
				}
				if _, err := conn.Write(storage.AppendFrame(nil, appendRequest(nil, req))); err != nil {
					t.Fatal(err)
				}
				expectMalformedHangUp(t, br)
				if store.Len() != 0 {
					t.Fatalf("store len = %d", store.Len())
				}
				if err := store.SaveFile(filepath.Join(t.TempDir(), "out.jsonl")); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	_, store, addr := startServer(t)
	c := dialFraming(t, addr, FramingBinary)
	const edge = 23*3600 + 59*60
	for _, tm := range []time.Time{
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", edge)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.FixedZone("", -edge)),
	} {
		rec := sampleRecord()
		rec.Time = tm
		if _, err := c.Submit(rec); err != nil {
			t.Fatalf("%v refused: %v", tm, err)
		}
	}
	if store.Len() != 2 {
		t.Fatalf("store len = %d, want 2", store.Len())
	}
	if err := store.SaveFile(filepath.Join(t.TempDir(), "out.jsonl")); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRetainsBoundedBytes: a connection's decoder keeps only
// record strings, and no more of them than the codec's intern budget.
// Requests with large unique verbs, client IDs, framing tokens and ref
// keys add nothing to it; records with large unique feature strings do
// not grow it past the budget.
func TestDecoderRetainsBoundedBytes(t *testing.T) {
	const budget = 1 << 20
	var d fingerprint.Decoder
	decode := func(req *Request) {
		t.Helper()
		if _, err := decodeRequest(&d, appendRequest(nil, req)); err != nil {
			t.Fatal(err)
		}
	}
	base := sampleRecord()
	decode(&Request{Type: TypeSubmit, Record: base})
	held := d.InternedBytes()
	big := strings.Repeat("x", 64<<10)
	for i := 0; i < 64; i++ {
		u := strconv.Itoa(i) + big[:512<<(i%2*7)] // 512 bytes or 64 KiB
		decode(&Request{Type: "t" + u, ClientID: "c" + u, Framing: "f" + u, Refs: map[string]string{"k" + u: "h"}, Record: base})
		if d.InternedBytes() != held {
			t.Fatalf("protocol strings kept: %d interned bytes, %d before", d.InternedBytes(), held)
		}
	}
	for i := 0; i < 4096; i++ {
		rec := sampleRecord()
		rec.Browser = strconv.Itoa(i) + big
		rec.FP.UserAgent = strconv.Itoa(i) + strings.Repeat("u", 1000)
		decode(&Request{Type: TypeSubmit, Record: rec})
		if d.InternedBytes() > budget {
			t.Fatalf("decoder keeps %d interned bytes", d.InternedBytes())
		}
	}
}

// serveOldProtocol emulates a server from before binary payloads over
// srv's dispatcher: it speaks newline-JSON and confirms only the old
// "binary" token, so it answers today's hello with json. The framing
// tokens it was asked for are sent on hellos.
func serveOldProtocol(t *testing.T, srv *Server) (addr string, hellos <-chan string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	asked := make(chan string, 1) // one connection, one hello
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec, enc := json.NewDecoder(conn), json.NewEncoder(conn)
		for {
			var req Request
			if dec.Decode(&req) != nil {
				return
			}
			resp := &Response{Type: TypeHello, Framing: FramingJSON}
			if req.Type == TypeHello {
				asked <- req.Framing
			} else {
				resp = srv.dispatch(&req)
			}
			if enc.Encode(resp) != nil {
				return
			}
		}
	}()
	return lis.Addr().String(), asked
}

func TestOldServerDeclinesNewToken(t *testing.T) {
	store := storage.NewStore()
	addr, hellos := serveOldProtocol(t, NewServer(store))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Negotiate()
	if err != nil {
		t.Fatal(err)
	}
	if got := <-hellos; got != binaryWire {
		t.Fatalf("hello asked for %q, want %q", got, binaryWire)
	}
	if f != FramingJSON || c.Framing() != FramingJSON {
		t.Fatalf("framing = %q, want json", f)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if acks, err := c.SubmitBatch(batchOf(t, 3, "old", 1), "old"); err != nil || len(acks) != 3 {
		t.Fatalf("batch: %d acks, %v", len(acks), err)
	}
	if store.Len() != 4 {
		t.Fatalf("store len = %d, want 4", store.Len())
	}
}

// ingestOver sends recs into a fresh WAL-backed store with the given
// shard count over one connection in framing — the first few one
// submit at a time, the rest in batches — then recovers the store from
// its directory and returns the recovered records and the server's
// counters.
func ingestOver(t *testing.T, recs []*fingerprint.Record, framing string, shards int) ([]*fingerprint.Record, Stats) {
	t.Helper()
	opts := storage.ShardedWALOptions{
		WALOptions: storage.WALOptions{Dir: t.TempDir(), Policy: storage.SyncNever},
		Shards:     shards,
	}
	ss, _, err := storage.RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := serve(t, ss)
	c := dialFraming(t, addr, framing)
	const singles, batch = 10, 16
	for i, r := range recs[:singles] {
		if _, _, err := c.SubmitSeq(r, "eq", uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	for start := singles; start < len(recs); start += batch {
		var b []BatchRecord
		for i := start; i < min(start+batch, len(recs)); i++ {
			b = append(b, BatchRecord{Rec: recs[i], Seq: uint64(i + 1)})
		}
		acks, err := c.SubmitBatch(b, "eq")
		if err != nil || len(acks) != len(b) {
			t.Fatalf("batch at %d: %d acks, %v", start, len(acks), err)
		}
	}
	c.Close()
	srv.Close()
	if err := ss.CloseWALs(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := storage.RecoverSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.CloseWALs()
	var got []*fingerprint.Record
	for i := 0; i < rec.Shards(); i++ {
		got = append(got, rec.Shard(i).Records()...)
	}
	return got, srv.Stats()
}

// TestFramingsRecoverIdenticalRecords: the same simulated records sent
// over newline-JSON and over binary frames, into 1- and 4-shard WAL
// stores, recover to the records that were sent, and the server counts
// the same records and values either way. Only the bytes on the wire
// differ between framings; a framing's own byte count does not depend
// on the shard count.
func TestFramingsRecoverIdenticalRecords(t *testing.T) {
	recs := population.Simulate(population.DefaultConfig(60)).Records
	want := recordDigest(t, recs)
	var first Stats
	bytesByFraming := map[string]int64{}
	for _, shards := range []int{1, 4} {
		for _, framing := range framings {
			got, st := ingestOver(t, recs, framing, shards)
			if len(got) != len(recs) {
				t.Fatalf("%s/%d shards: recovered %d of %d records", framing, shards, len(got), len(recs))
			}
			if d := recordDigest(t, got); d != want {
				t.Fatalf("%s/%d shards: recovered records differ from the sent ones", framing, shards)
			}
			if b, ok := bytesByFraming[framing]; ok && b != st.BytesReceived {
				t.Fatalf("%s/%d shards: %d bytes received, %d at 1 shard", framing, shards, st.BytesReceived, b)
			}
			bytesByFraming[framing] = st.BytesReceived
			st.BytesReceived = 0
			if first == (Stats{}) {
				first = st
			} else if st != first {
				t.Fatalf("%s/%d shards: stats %+v, want %+v", framing, shards, st, first)
			}
		}
	}
	if first.RecordsAccepted != int64(len(recs)) || first.ValuesDeduped == 0 {
		t.Fatalf("stats %+v for %d records", first, len(recs))
	}
	if bytesByFraming[FramingBinary] >= bytesByFraming[FramingJSON] {
		t.Fatalf("binary framing sent %d bytes, newline-JSON %d", bytesByFraming[FramingBinary], bytesByFraming[FramingJSON])
	}
}

// TestValueHashVerified: a value blob is stored only under its own
// hash. A blob that claims another list's hash is refused — a submit
// with an error reply, a batch item with an error ack after the
// acknowledged prefix — so it cannot poison later records that
// reference that hash.
func TestValueHashVerified(t *testing.T) {
	evil := encodeList([]string{"Evil Sans"})
	for _, framing := range framings {
		for _, verb := range []string{TypeSubmit, TypeBatch} {
			t.Run(framing+"/"+verb, func(t *testing.T) {
				_, store, addr := startServer(t)
				c := dialFraming(t, addr, framing)
				honest := sampleRecord()
				wire, refs, _ := StripRecord(honest)
				poison := map[string][]byte{refs[FieldFonts]: evil}
				if verb == TypeSubmit {
					_, err := c.roundTrip(&Request{Type: TypeSubmit, Record: wire, Refs: refs, Values: poison})
					if err == nil || !strings.Contains(err.Error(), "does not match its hash") {
						t.Fatalf("poisoned submit: %v", err)
					}
				} else {
					// The first item is sound and lands the other lists'
					// values; its own fonts differ from the honest ones.
					other := sampleRecord()
					other.UserID = "u-other"
					other.FP.Fonts = []string{"Comic Sans MS"}
					ow, orefs, oblobs := StripRecord(other)
					resp, err := c.roundTrip(&Request{Type: TypeBatch, ClientID: "p", Batch: []BatchItem{
						{Record: ow, Refs: orefs, Values: oblobs, Seq: 1},
						{Record: wire, Refs: refs, Values: poison, Seq: 2},
					}})
					if err != nil {
						t.Fatal(err)
					}
					if len(resp.Acks) != 2 || resp.Acks[0].Error != "" || !strings.Contains(resp.Acks[1].Error, "does not match its hash") {
						t.Fatalf("poisoned batch acks %+v", resp.Acks)
					}
				}
				if _, err := c.Submit(honest); err != nil {
					t.Fatal(err)
				}
				recs := store.Records()
				if got := recs[len(recs)-1]; jsonOf(t, got) != jsonOf(t, honest) {
					t.Fatalf("honest record stored as\n%s\nwant\n%s", jsonOf(t, got), jsonOf(t, honest))
				}
			})
		}
	}
}

// TestEmptyListsKeepTheirShape: an empty list and a nil one are
// different values (JSON [] and null); both reach the store as sent,
// by submit and by batch, in either framing.
func TestEmptyListsKeepTheirShape(t *testing.T) {
	for _, framing := range framings {
		t.Run(framing, func(t *testing.T) {
			_, store, addr := startServer(t)
			c := dialFraming(t, addr, framing)
			var sent []*fingerprint.Record
			for i := 0; i < 2; i++ {
				rec := sampleRecord()
				rec.UserID = fmt.Sprintf("u-empty-%d", i)
				rec.FP.Plugins = []string{}
				rec.FP.Languages = nil
				sent = append(sent, rec)
			}
			if _, err := c.Submit(sent[0]); err != nil {
				t.Fatal(err)
			}
			if acks, err := c.SubmitBatch([]BatchRecord{{Rec: sent[1], Seq: 1}}, "empty"); err != nil || len(acks) != 1 || acks[0].Error != "" {
				t.Fatalf("batch: %+v, %v", acks, err)
			}
			for i, got := range store.Records() {
				if got.FP.Plugins == nil || len(got.FP.Plugins) != 0 || got.FP.Languages != nil {
					t.Fatalf("record %d stored with plugins %#v, languages %#v", i, got.FP.Plugins, got.FP.Languages)
				}
				if jsonOf(t, got) != jsonOf(t, sent[i]) {
					t.Fatalf("record %d stored as\n%s\nwant\n%s", i, jsonOf(t, got), jsonOf(t, sent[i]))
				}
			}
		})
	}
}
