package fingerprint

// Binary record codec: the on-disk form of a Record in the spill runs,
// the storage WAL and compaction snapshots and the linkd add journal,
// and the payload codec of the collector's binary frames. JSON stays
// the linkd wire, the newline-JSON collector wire and the export
// format; this one exists because every disk layer re-reads its records
// and encoding/json dominated the cost.
//
// Layout of one record (all integers are Go varints in their shortest
// encoding: uvarint for counts and lengths, zig-zag varint for signed
// values):
//
//	byte     RecordVersion (1; never '{', so a payload that starts with
//	         it cannot be mistaken for a legacy JSON one)
//	varint   Time: Unix seconds
//	uvarint  Time: nanoseconds within the second (< 1e9)
//	varint   Time: zone offset in seconds east of UTC
//	string   UserID, Cookie, Browser, OS, Device
//	bool     Mobile
//	bool     FP present; when set, the Fingerprint fields follow in
//	         struct declaration order
//
// A string is uvarint length + bytes. A string list is uvarint n, where
// 0 is a nil list and n > 0 a list of n-1 strings, so nil and empty
// lists — which JSON keeps apart as null and [] — stay apart. A bool is
// one byte, 0 or 1; any other value is malformed.
//
// Decoding mirrors what encoding/json returns for the same record: a
// zero offset decodes to UTC, any other offset to the Local zone when
// Local has that offset at that instant and to an unnamed fixed zone
// otherwise — exactly time.Parse's rule for RFC 3339 offsets.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// RecordVersion is the leading byte of every binary-encoded Record.
const RecordVersion byte = 1

// ErrMalformed is returned (wrapped) for bytes that are not a valid
// binary encoding: truncated, over-long, or out of range.
var ErrMalformed = errors.New("fingerprint: malformed binary record")

// AppendRecord appends the binary encoding of r to dst and returns the
// extended slice.
func AppendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, RecordVersion)
	_, off := r.Time.Zone()
	dst = binary.AppendVarint(dst, r.Time.Unix())
	dst = binary.AppendUvarint(dst, uint64(r.Time.Nanosecond()))
	dst = binary.AppendVarint(dst, int64(off))
	dst = AppendString(dst, r.UserID)
	dst = AppendString(dst, r.Cookie)
	dst = AppendString(dst, r.Browser)
	dst = AppendString(dst, r.OS)
	dst = AppendString(dst, r.Device)
	dst = AppendBool(dst, r.Mobile)
	dst = AppendBool(dst, r.FP != nil)
	if r.FP != nil {
		dst = appendFingerprint(dst, r.FP)
	}
	return dst
}

func appendFingerprint(dst []byte, fp *Fingerprint) []byte {
	dst = AppendString(dst, fp.UserAgent)
	dst = AppendString(dst, fp.Accept)
	dst = AppendString(dst, fp.Encoding)
	dst = AppendString(dst, fp.Language)
	dst = appendStrings(dst, fp.HeaderList)
	dst = appendStrings(dst, fp.Plugins)
	dst = AppendBool(dst, fp.CookieEnabled)
	dst = AppendBool(dst, fp.WebGL)
	dst = AppendBool(dst, fp.LocalStorage)
	dst = AppendBool(dst, fp.AddBehavior)
	dst = AppendBool(dst, fp.OpenDatabase)
	dst = binary.AppendVarint(dst, int64(fp.TimezoneOffset))
	dst = appendStrings(dst, fp.Languages)
	dst = appendStrings(dst, fp.Fonts)
	dst = AppendString(dst, fp.CanvasHash)
	dst = AppendString(dst, fp.GPUVendor)
	dst = AppendString(dst, fp.GPURenderer)
	dst = AppendString(dst, fp.GPUType)
	dst = binary.AppendVarint(dst, int64(fp.CPUCores))
	dst = AppendString(dst, fp.CPUClass)
	dst = AppendString(dst, fp.AudioInfo)
	dst = AppendString(dst, fp.ScreenResolution)
	dst = binary.AppendVarint(dst, int64(fp.ColorDepth))
	dst = AppendString(dst, fp.PixelRatio)
	dst = AppendString(dst, fp.IPAddr)
	dst = AppendString(dst, fp.IPCity)
	dst = AppendString(dst, fp.IPRegion)
	dst = AppendString(dst, fp.IPCountry)
	dst = AppendBool(dst, fp.ConsLanguage)
	dst = AppendBool(dst, fp.ConsResolution)
	dst = AppendBool(dst, fp.ConsOS)
	dst = AppendBool(dst, fp.ConsBrowser)
	dst = AppendString(dst, fp.GPUImageHash)
	return dst
}

// AppendString appends s as uvarint length + bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends b as uvarint length + bytes.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ss))+1)
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Bounds on a Decoder's intern table. The interned fields (user agent,
// fonts, plugins, GPU strings, languages, ...) take a few thousand
// distinct short values even in large populations; when a table
// reaches either bound anyway it is cleared and refills with what is
// hot. Longer strings are copied, not interned, so what a table keeps
// stays within maxInternedBytes whatever the payloads hold.
const (
	maxInterned      = 8192
	maxInternedBytes = 1 << 20
	maxInternLen     = 1 << 10
)

// Decoder reads binary records and the length-prefixed fields around
// them from one payload at a time. Decoded strings never alias the
// payload, so it may be reused once a call returns. Strings that repeat
// across records (user agent, fonts, plugins, GPU, languages and the
// other low-cardinality features) are shared through a bounded intern
// table owned by the Decoder; identifiers (user ID, cookie, IP address)
// are copied. A Decoder is not safe for concurrent use: give each
// stream or recovery pass its own. The zero value is ready to use.
//
// Errors are sticky: after the first malformed read every later read
// returns a zero value, and Finish reports the error.
type Decoder struct {
	b         []byte
	err       error
	strs      map[string]string
	strsBytes int // total length of the strings in strs
}

// Reset points the decoder at a new payload and clears any error. The
// intern table is kept.
func (d *Decoder) Reset(b []byte) {
	d.b = b
	d.err = nil
}

// Finish returns the first decode error, or an error when bytes remain
// unread: a payload must be consumed exactly.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Fail records a malformation found by a caller layering its own
// format on the Decoder, with the same sticky semantics as the
// Decoder's own errors: later reads return zero values and Finish
// reports the first error.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

// Record reads one binary record.
func (d *Decoder) Record() *Record {
	if v := d.Byte(); v != RecordVersion {
		d.Fail("record version %d, want %d", v, RecordVersion)
		return nil
	}
	sec := d.Varint()
	nsec := d.Uvarint()
	off := d.Varint()
	if nsec >= 1e9 {
		d.Fail("nanoseconds %d out of range", nsec)
	}
	if off < -(1<<31) || off >= 1<<31 {
		d.Fail("zone offset %d out of range", off)
	}
	r := &Record{
		UserID:  d.CopyString(),
		Cookie:  d.CopyString(),
		Browser: d.Intern(),
		OS:      d.Intern(),
		Device:  d.Intern(),
		Mobile:  d.Bool(),
	}
	if d.Bool() {
		r.FP = d.fingerprint()
	}
	if d.err != nil {
		return nil
	}
	r.Time = decodeTime(sec, int64(nsec), int(off))
	return r
}

// decodeTime rebuilds the instant in the zone encoding/json would
// return for its RFC 3339 form (see the package note above).
func decodeTime(sec, nsec int64, off int) time.Time {
	t := time.Unix(sec, nsec)
	if off == 0 {
		return t.UTC()
	}
	local := t.In(time.Local)
	if _, o := local.Zone(); o == off {
		return local
	}
	return t.In(time.FixedZone("", off))
}

func (d *Decoder) fingerprint() *Fingerprint {
	fp := &Fingerprint{}
	fp.UserAgent = d.Intern()
	fp.Accept = d.Intern()
	fp.Encoding = d.Intern()
	fp.Language = d.Intern()
	fp.HeaderList = d.strings()
	fp.Plugins = d.strings()
	fp.CookieEnabled = d.Bool()
	fp.WebGL = d.Bool()
	fp.LocalStorage = d.Bool()
	fp.AddBehavior = d.Bool()
	fp.OpenDatabase = d.Bool()
	fp.TimezoneOffset = d.Int()
	fp.Languages = d.strings()
	fp.Fonts = d.strings()
	fp.CanvasHash = d.Intern()
	fp.GPUVendor = d.Intern()
	fp.GPURenderer = d.Intern()
	fp.GPUType = d.Intern()
	fp.CPUCores = d.Int()
	fp.CPUClass = d.Intern()
	fp.AudioInfo = d.Intern()
	fp.ScreenResolution = d.Intern()
	fp.ColorDepth = d.Int()
	fp.PixelRatio = d.Intern()
	fp.IPAddr = d.CopyString()
	fp.IPCity = d.Intern()
	fp.IPRegion = d.Intern()
	fp.IPCountry = d.Intern()
	fp.ConsLanguage = d.Bool()
	fp.ConsResolution = d.Bool()
	fp.ConsOS = d.Bool()
	fp.ConsBrowser = d.Bool()
	fp.GPUImageHash = d.Intern()
	return fp
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.Fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool reads one 0/1 byte.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail("bool byte out of range")
	return false
}

// Uvarint reads one unsigned varint. Only the shortest encoding — the
// one binary.AppendUvarint writes — is accepted, so every value has
// exactly one encoding and re-encoding a decoded payload reproduces it.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads one signed (zig-zag) varint, shortest encoding only.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.Fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads one signed varint that must fit an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail("int %d out of range", v)
		return 0
	}
	return int(v)
}

// Count reads a uvarint element count, bounded by the bytes left: every
// element takes at least one byte, so a count larger than the rest of
// the payload is malformed rather than a reason to allocate.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.Fail("count %d exceeds %d remaining bytes", n, len(d.b))
		return 0
	}
	return int(n)
}

// raw reads one length-prefixed byte run, aliasing the payload.
func (d *Decoder) raw() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.Fail("length %d exceeds %d remaining bytes", n, len(d.b))
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// CopyString reads one length-prefixed string as a fresh copy. (Not
// String: a Decoder must not be a fmt.Stringer that consumes input.)
func (d *Decoder) CopyString() string { return string(d.raw()) }

// Bytes reads one length-prefixed byte slice as a fresh copy; an empty
// one decodes to nil.
func (d *Decoder) Bytes() []byte {
	b := d.raw()
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Intern reads one length-prefixed string through the intern table.
func (d *Decoder) Intern() string {
	b := d.raw()
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	} else if len(d.strs) >= maxInterned || d.strsBytes+len(b) > maxInternedBytes {
		clear(d.strs)
		d.strsBytes = 0
	}
	s := string(b)
	d.strs[s] = s
	d.strsBytes += len(s)
	return s
}

// InternedBytes reports the total length of the strings the intern
// table holds; it never exceeds 1 MiB.
func (d *Decoder) InternedBytes() int { return d.strsBytes }

// strings reads one string list (see the layout note: 0 is nil).
func (d *Decoder) strings() []string {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, n-1)
	for i := range out {
		out[i] = d.Intern()
	}
	return out
}
