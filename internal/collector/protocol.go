// Package collector implements the measurement platform of Figure 1:
// a data-collection client whose task manager gathers feature groups in
// parallel, a transfer module that content-addresses bulky feature
// values so the client sends only a hash when the server already holds
// the value (§2.2.1), and a TCP data-storage server that reconstructs
// and appends full visit records to a storage.Store.
package collector

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"fpdyn/internal/fingerprint"
	"fpdyn/internal/hashutil"
	"fpdyn/internal/storage"
)

// Message types of the wire protocol. A connection starts in
// newline-delimited JSON over a single TCP connection and may switch
// to binary frames (see FramingBinary); every request gets exactly one
// response.
const (
	TypeCheck  = "check"  // client → server: which of these value hashes do you have?
	TypeSubmit = "submit" // client → server: a record plus any values you were missing
	TypePing   = "ping"   // client → server: liveness probe
	TypeHello  = "hello"  // client → server: framing negotiation
	TypeBatch  = "batch"  // client → server: many submits in one frame

	TypeNeed  = "need"  // server → client: the hashes it does not have
	TypeOK    = "ok"    // server → client: record accepted
	TypePong  = "pong"  // server → client: liveness reply
	TypeError = "error" // server → client: request rejected
)

// Framing modes a connection can be in. The connection starts in
// newline-JSON; when client and server agree on binary in a hello
// exchange, both sides switch — after the hello response — to CRC-32C
// length-prefixed frames (storage.AppendFrame/ReadFrame) whose payloads
// are the binary encoding of appendRequest and appendResponse.
const (
	FramingJSON   = "json"
	FramingBinary = "binary"
)

// binaryWire is the framing token a hello carries on the wire to ask
// for binary frames, and the only one the server confirms. Peers from
// before the frames carried the binary encoding asked for and
// confirmed FramingBinary with JSON payloads; each side declines the
// other's token, so such a peer falls back to newline-JSON instead of
// misreading frames. (A server older still answers hello with
// TypeError, which the client also takes as JSON.)
const binaryWire = "binary/1"

// BatchItem is one submit inside a TypeBatch request. The batch shares
// one ClientID (on the Request); each item carries its own sequence
// number and any value blobs the server was missing.
type BatchItem struct {
	Record *fingerprint.Record `json:"record"`
	Refs   map[string]string   `json:"refs,omitempty"`
	Values map[string][]byte   `json:"values,omitempty"`
	Seq    uint64              `json:"seq,omitempty"`
}

// Ack is one record's outcome inside a TypeBatch response. A non-empty
// Error marks where the server stopped: the ack list is always a
// prefix of the batch (plus at most one failed item), and nothing past
// it was ACKed. Un-acked items may or may not have reached stable
// storage (a group commit can fail after some shards committed); the
// client retransmits them and the per-client sequence table turns any
// that did land into dups — preserving the in-order idempotency
// invariant either way.
type Ack struct {
	Index int    `json:"index"`
	Dup   bool   `json:"dup,omitempty"`
	Error string `json:"error,omitempty"`
}

// Request is a client→server message.
type Request struct {
	Type   string              `json:"type"`
	Hashes []string            `json:"hashes,omitempty"`
	Record *fingerprint.Record `json:"record,omitempty"`
	// Refs maps dedup field names to the hash of their content; the
	// record is sent with those fields stripped.
	Refs map[string]string `json:"refs,omitempty"`
	// Values carries the content for hashes the server reported missing.
	Values map[string][]byte `json:"values,omitempty"`
	// ClientID/Seq form the client-assigned sequence ID of a submit.
	// Seq is monotonic per ClientID; a reconnecting client resubmits an
	// un-ACKed record under its original Seq and the server appends it
	// at most once. Empty ClientID opts out (legacy submits).
	ClientID string `json:"cid,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	// Framing is the framing mode a hello requests.
	Framing string `json:"framing,omitempty"`
	// Batch carries the submits of a TypeBatch request, in sequence
	// order.
	Batch []BatchItem `json:"batch,omitempty"`
}

// Response is a server→client message.
type Response struct {
	Type   string   `json:"type"`
	Hashes []string `json:"hashes,omitempty"`
	Index  int      `json:"index,omitempty"`
	Error  string   `json:"error,omitempty"`
	// Dup marks an OK reply for a submit whose (ClientID, Seq) the
	// server had already applied: the record was not appended again.
	Dup bool `json:"dup,omitempty"`
	// Framing is the framing mode a hello reply confirms.
	Framing string `json:"framing,omitempty"`
	// Acks are the per-record outcomes of a TypeBatch request.
	Acks []Ack `json:"acks,omitempty"`
}

// Dedup field names: the list-valued features bulky enough to be worth
// content addressing. The font list alone dominates record size.
const (
	FieldFonts   = "fonts"
	FieldPlugins = "plugins"
	FieldHeaders = "hdrs"
	FieldLangs   = "langs"
)

// DedupFields enumerates the dedupable fields in a stable order.
var DedupFields = []string{FieldFonts, FieldPlugins, FieldHeaders, FieldLangs}

// fieldValue extracts a dedup field's list from a fingerprint.
func fieldValue(fp *fingerprint.Fingerprint, field string) []string {
	switch field {
	case FieldFonts:
		return fp.Fonts
	case FieldPlugins:
		return fp.Plugins
	case FieldHeaders:
		return fp.HeaderList
	case FieldLangs:
		return fp.Languages
	}
	return nil
}

// setFieldValue writes a dedup field's list back into a fingerprint.
func setFieldValue(fp *fingerprint.Fingerprint, field string, v []string) {
	switch field {
	case FieldFonts:
		fp.Fonts = v
	case FieldPlugins:
		fp.Plugins = v
	case FieldHeaders:
		fp.HeaderList = v
	case FieldLangs:
		fp.Languages = v
	}
}

// encodeList canonically serializes a list value for content
// addressing.
func encodeList(v []string) []byte {
	b, _ := json.Marshal(v) // string slices cannot fail to marshal
	return b
}

// decodeList parses a stored list value.
func decodeList(b []byte) ([]string, error) {
	var v []string
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("collector: bad list value: %w", err)
	}
	return v, nil
}

// StripRecord splits a record into its wire form: a copy with dedup
// fields removed, the field→hash reference map, and the hash→content
// blobs. The caller sends only the blobs the server reports missing.
// The hashes are taken over the record's own lists, so an empty list
// and a nil one (JSON [] and null) are different values and each comes
// back restored as it was sent.
func StripRecord(r *fingerprint.Record) (wire *fingerprint.Record, refs map[string]string, blobs map[string][]byte) {
	cp := *r
	fp := *r.FP // shallow: every slice field is a dedup field, cleared below
	cp.FP = &fp
	refs = make(map[string]string, len(DedupFields))
	blobs = make(map[string][]byte, len(DedupFields))
	for _, field := range DedupFields {
		content := encodeList(fieldValue(r.FP, field))
		h := hashutil.SHA1HexBytes(content)
		refs[field] = h
		blobs[h] = content
		setFieldValue(&fp, field, nil)
	}
	return &cp, refs, blobs
}

// RestoreRecord reinstates dedup fields on a wire record using the
// resolver (the server's value store).
func RestoreRecord(wire *fingerprint.Record, refs map[string]string, lookup func(hash string) ([]byte, bool)) (*fingerprint.Record, error) {
	fields := make([]string, 0, len(refs))
	for f := range refs {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, field := range fields {
		h := refs[field]
		content, ok := lookup(h)
		if !ok {
			return nil, fmt.Errorf("collector: missing value %s for field %s", h, field)
		}
		v, err := decodeList(content)
		if err != nil {
			return nil, err
		}
		setFieldValue(wire.FP, field, v)
	}
	return wire, nil
}

// Binary payloads. Once a hello exchange has agreed on binary framing,
// every request and response is one storage frame whose payload is the
// encoding below, built from the record codec's primitives (see
// internal/fingerprint/codec.go: varints in their shortest form,
// length-prefixed strings, 0/1 bools). Every field is written whatever
// the verb, in declaration order; an empty one costs a byte.
//
//	Request   string Type | hashes Hashes | submit | string ClientID |
//	          uvarint Seq | string Framing | uvarint n, n × (submit | uvarint Seq)
//	Response  string Type | hashes Hashes | varint Index | string Error |
//	          bool Dup | string Framing | uvarint n, n × ack
//	ack       varint Index | bool Dup | string Error
//	submit    bool has-record [record] | refs Refs | values Values
//
// hashes is a uvarint count and that many strings; record is one
// fingerprint.AppendRecord encoding; refs and values are a uvarint count
// and that many key/value pairs (string/string and string/bytes). Map
// keys are written in sorted order and the decoder accepts only
// strictly increasing keys, so a payload is a pure function of its
// message and every message has exactly one encoding. An empty list
// or map decodes as nil, as omitempty makes it in the JSON form, and so
// does an empty value blob.

// appendRequest appends the binary payload of req to dst.
func appendRequest(dst []byte, req *Request) []byte {
	dst = fingerprint.AppendString(dst, req.Type)
	dst = appendHashes(dst, req.Hashes)
	dst = appendSubmit(dst, req.Record, req.Refs, req.Values)
	dst = fingerprint.AppendString(dst, req.ClientID)
	dst = binary.AppendUvarint(dst, req.Seq)
	dst = fingerprint.AppendString(dst, req.Framing)
	dst = binary.AppendUvarint(dst, uint64(len(req.Batch)))
	for i := range req.Batch {
		it := &req.Batch[i]
		dst = appendSubmit(dst, it.Record, it.Refs, it.Values)
		dst = binary.AppendUvarint(dst, it.Seq)
	}
	return dst
}

// appendResponse appends the binary payload of resp to dst.
func appendResponse(dst []byte, resp *Response) []byte {
	dst = fingerprint.AppendString(dst, resp.Type)
	dst = appendHashes(dst, resp.Hashes)
	dst = binary.AppendVarint(dst, int64(resp.Index))
	dst = fingerprint.AppendString(dst, resp.Error)
	dst = fingerprint.AppendBool(dst, resp.Dup)
	dst = fingerprint.AppendString(dst, resp.Framing)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Acks)))
	for _, a := range resp.Acks {
		dst = binary.AppendVarint(dst, int64(a.Index))
		dst = fingerprint.AppendBool(dst, a.Dup)
		dst = fingerprint.AppendString(dst, a.Error)
	}
	return dst
}

func appendHashes(dst []byte, hashes []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(hashes)))
	for _, h := range hashes {
		dst = fingerprint.AppendString(dst, h)
	}
	return dst
}

// appendSubmit appends the fields a submit and a batch item share.
func appendSubmit(dst []byte, rec *fingerprint.Record, refs map[string]string, values map[string][]byte) []byte {
	dst = fingerprint.AppendBool(dst, rec != nil)
	if rec != nil {
		dst = fingerprint.AppendRecord(dst, rec)
	}
	dst = binary.AppendUvarint(dst, uint64(len(refs)))
	for _, k := range sortedKeys(refs) {
		dst = fingerprint.AppendString(dst, k)
		dst = fingerprint.AppendString(dst, refs[k])
	}
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	for _, k := range sortedKeys(values) {
		dst = fingerprint.AppendString(dst, k)
		dst = fingerprint.AppendBytes(dst, values[k])
	}
	return dst
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// decodeRequest decodes one binary request payload. Only the record
// strings the codec interns go through d's bounded intern table; the
// protocol's own strings are copied, so a peer cannot make a
// connection's decoder keep what it sends. Nothing returned aliases
// payload.
func decodeRequest(d *fingerprint.Decoder, payload []byte) (*Request, error) {
	d.Reset(payload)
	req := &Request{Type: d.CopyString(), Hashes: decodeHashes(d)}
	req.Record, req.Refs, req.Values = decodeSubmit(d)
	req.ClientID = d.CopyString()
	req.Seq = d.Uvarint()
	req.Framing = d.CopyString()
	if n := d.Count(); n > 0 {
		req.Batch = make([]BatchItem, n)
		for i := range req.Batch {
			it := &req.Batch[i]
			it.Record, it.Refs, it.Values = decodeSubmit(d)
			it.Seq = d.Uvarint()
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeResponse decodes one binary response payload.
func decodeResponse(d *fingerprint.Decoder, payload []byte) (*Response, error) {
	d.Reset(payload)
	resp := &Response{
		Type:    d.CopyString(),
		Hashes:  decodeHashes(d),
		Index:   d.Int(),
		Error:   d.CopyString(),
		Dup:     d.Bool(),
		Framing: d.CopyString(),
	}
	if n := d.Count(); n > 0 {
		resp.Acks = make([]Ack, n)
		for i := range resp.Acks {
			resp.Acks[i] = Ack{Index: d.Int(), Dup: d.Bool(), Error: d.CopyString()}
		}
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

func decodeHashes(d *fingerprint.Decoder) []string {
	n := d.Count()
	if n == 0 {
		return nil
	}
	hashes := make([]string, n)
	for i := range hashes {
		hashes[i] = d.CopyString()
	}
	return hashes
}

func decodeSubmit(d *fingerprint.Decoder) (rec *fingerprint.Record, refs map[string]string, values map[string][]byte) {
	if d.Bool() {
		rec = d.Record()
		checkTime(d, rec)
	}
	if n := d.Count(); n > 0 {
		refs = make(map[string]string, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.CopyString()
			inOrder(d, i, prev, k)
			refs[k], prev = d.CopyString(), k
		}
	}
	if n := d.Count(); n > 0 {
		values = make(map[string][]byte, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.CopyString()
			inOrder(d, i, prev, k)
			values[k], prev = d.Bytes(), k
		}
	}
	return rec, refs, values
}

// checkTime fails d unless rec's time has an RFC 3339 form, which is
// all the newline-JSON wire can carry and all the JSONL export can
// write: a year from 0 to 9999 and a zone offset of whole minutes under
// 24 hours.
func checkTime(d *fingerprint.Decoder, rec *fingerprint.Record) {
	if rec == nil {
		return
	}
	_, off := rec.Time.Zone()
	if y := rec.Time.Year(); y < 0 || y > 9999 || off%60 != 0 || off <= -24*3600 || off >= 24*3600 {
		d.Fail("record time %v has no RFC 3339 form", rec.Time)
	}
}

// inOrder fails d unless the i-th map key k sorts strictly after the
// previous one.
func inOrder(d *fingerprint.Decoder, i int, prev, k string) {
	if i > 0 && k <= prev {
		d.Fail("map key %q not after %q", k, prev)
	}
}

// maxRetainedFrame bounds the inbound buffer a connection keeps
// between frames, so one large request does not pin its size for the
// connection's lifetime.
const maxRetainedFrame = 1 << 20

// frameCodec is one connection's side of binary framing: reused
// inbound and outbound buffers and the payload decoder, whose bounded
// intern table carries the record strings that repeat from frame to
// frame. The decoder copies everything it returns out of the payload,
// which is what makes reusing the inbound buffer safe. It belongs to
// the one goroutine that owns the connection.
type frameCodec struct {
	dec     fingerprint.Decoder
	in      []byte // storage of the last inbound payload
	payload []byte // outbound payload
	frame   []byte // outbound frame
}

// read reads one frame's payload; it is valid until the next read.
func (fc *frameCodec) read(r io.Reader, maxFrame int) ([]byte, error) {
	p, err := storage.ReadFrameInto(r, fc.in, maxFrame)
	if err == nil && cap(p) <= maxRetainedFrame {
		fc.in = p
	}
	return p, err
}

// send frames fc.payload and writes the frame with one Write.
func (fc *frameCodec) send(w io.Writer) (int, error) {
	fc.frame = storage.AppendFrame(fc.frame[:0], fc.payload)
	return w.Write(fc.frame)
}
