package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/smart"
)

// Series-carrying bodies (POST /v1/score and /v1/score/batch) are
// decoded by one pass over the body bytes instead of encoding/json
// reflection: the pass checks the JSON, matches the keys of ScoreRequest
// and BatchDrive, and appends every series number to one slab per
// request, keeping each drive's columns as spans of the slab in body
// order. When a drive is scored, resolveSeries fills the request's
// seriesTable from those spans (or from the store), so only one table
// per request exists however many drives a batch carries.
//
// The decoder keeps encoding/json's accept and reject set for these
// bodies, which FuzzSeriesDecode checks against encoding/json plus the
// former map-based validation:
//   - a syntax error anywhere in the bytes read is a 400; a body cut
//     at MaxBodyBytes with no syntax error before the cut is a 413;
//   - a type mismatch, an unknown field, or a number out of range is
//     a 400, reported only once the whole body has been read, as
//     encoding/json saves such errors and reads on;
//   - struct keys match case-insensitively (bytes.EqualFold), and keys
//     and strings may carry escapes, decoded as encoding/json decodes
//     them;
//   - a repeated "series" key merges its features into the drive's
//     series, a repeated feature key replaces the column, and "series":
//     null drops the inline series; a repeated "drives" key decodes its
//     elements into the drives already decoded, as encoding/json
//     decodes into an existing slice;
//   - numbers follow the JSON grammar (no "01", ".5", "+1", hex or
//     "Inf") and are parsed by strconv.ParseFloat, so values are
//     bit-identical.
//
// One difference is deliberate: a null inside a series column is a
// missing reading and decodes to NaN (encoding/json leaves 0), which
// the trees route by their missing-value direction.
//
// Series validation (unknown feature, empty, over-long or ragged
// columns) runs per drive when the drive is resolved, after the model
// lookup, as before; it walks the columns in body order, so a body
// with several faults always gets the first one's status.
//
// FleetRequest and IngestRequest stay on decodeBody: they are a few
// dozen bytes of fixed shape, so reflection costs microseconds there,
// and a second hand-written decoder would be code with no saving.

// seriesTable holds one drive's telemetry columns indexed by
// smart.Feature.Index; a nil column is a feature the drive lacks.
type seriesTable [smart.NumFeatures][]float64

// A drive's features are tracked in a uint64 bit set.
var _ [64 - smart.NumFeatures]struct{}

// featByName maps every catalog feature name to its index.
var featByName = func() map[string]int {
	m := make(map[string]int, smart.NumFeatures)
	for _, a := range smart.AllAttrs() {
		for _, k := range []smart.Kind{smart.Raw, smart.Normalized} {
			ft := smart.Feature{Attr: a, Kind: k}
			m[ft.String()] = ft.Index()
		}
	}
	return m
}()

// colSpan is one inline column of a drive: feature index and the
// column's values, slab[lo:hi]. A null column has lo == hi.
type colSpan struct {
	feat   int
	lo, hi int
}

// bodyDrive is one decoded drive of a score body (the top level of a
// ScoreRequest) or a batch body (one BatchDrive).
type bodyDrive struct {
	driveID, day               int
	mwi                        float64
	hasDriveID, hasDay, hasMWI bool
	inline                     bool // a non-null "series" object was decoded
	present                    uint64
	cols                       []colSpan // in the order their keys first appeared
	hasUnknown                 bool
	unknownAt                  int // cols position the first unknown name took
	unknownName                string
}

// mwiOverride returns the drive's "mwi" routing override, or nil.
func (d *bodyDrive) mwiOverride() *float64 {
	if d.hasMWI {
		return &d.mwi
	}
	return nil
}

// reset empties d, keeping its column list's storage.
func (d *bodyDrive) reset() {
	*d = bodyDrive{cols: d.cols[:0]}
}

// resetSeries drops d's inline series ("series": null).
func (d *bodyDrive) resetSeries() {
	d.inline, d.present, d.cols = false, 0, d.cols[:0]
	d.hasUnknown, d.unknownName = false, ""
}

// setColumn records column feat = slab[lo:hi], replacing an earlier
// column of the feature in place, as a repeated map key does.
func (d *bodyDrive) setColumn(feat, lo, hi int) {
	if d.present&(1<<feat) != 0 {
		for i := range d.cols {
			if d.cols[i].feat == feat {
				d.cols[i].lo, d.cols[i].hi = lo, hi
				return
			}
		}
	}
	d.present |= 1 << feat
	d.cols = append(d.cols, colSpan{feat: feat, lo: lo, hi: hi})
}

// checkSeries validates d's inline series against the span limit and
// returns the common column length. Columns are checked in body order
// and the first fault decides: an unknown feature name, an empty
// column, more than maxDays days (413), or a length unequal to the
// first column's.
func (d *bodyDrive) checkSeries(maxDays int) (int, error) {
	if len(d.cols) == 0 && !d.hasUnknown {
		return 0, &reqError{code: http.StatusBadRequest, msg: "series is empty"}
	}
	n := -1
	for i := 0; i <= len(d.cols); i++ {
		if d.hasUnknown && i == d.unknownAt {
			return 0, &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("unknown feature %q", d.unknownName)}
		}
		if i == len(d.cols) {
			break
		}
		c := d.cols[i]
		name, days := featNames[c.feat], c.hi-c.lo
		switch {
		case days == 0:
			return 0, &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("feature %q has an empty series", name)}
		case days > maxDays:
			return 0, &reqError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("feature %q has %d days, limit %d", name, days, maxDays)}
		case n < 0:
			n = days
		case days != n:
			return 0, &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("feature %q has %d days, other columns have %d", name, days, n)}
		}
	}
	return n, nil
}

// featNames is featByName inverted.
var featNames = func() [smart.NumFeatures]string {
	var out [smart.NumFeatures]string
	for name, i := range featByName {
		out[i] = name
	}
	return out
}()

// seriesBody is a decoded score or batch body with its buffers; it is
// pooled, and release returns it.
type seriesBody struct {
	model  string
	drives []bodyDrive // decoded drive slots; the request's drives are drives[:n]
	n      int
	raw    []byte      // the body
	slab   []float64   // every series value of the body
	tbl    seriesTable // the columns of the drive being scored
	batch  batchScratch
}

// maxPooledBody is the largest body whose buffers go back to the pool:
// a rare huge body should not pin its buffers.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(seriesBody) }}

// release drops b's references into the store and returns it to the
// pool. Drive slots hold only spans and are emptied when next decoded.
func (b *seriesBody) release() {
	b.tbl = seriesTable{}
	if cap(b.raw) > maxPooledBody {
		return
	}
	bodyPool.Put(b)
}

// column returns drive column c as a slice of the slab.
func (b *seriesBody) column(c colSpan) []float64 {
	return b.slab[c.lo:c.hi:c.hi]
}

// decodeSeries reads r's body, at most limit bytes, and decodes it as
// a score body (batch false) or a batch body; batch drives past
// maxDrives are checked but not kept. On success the caller owns the
// result and releases it.
func decodeSeries(w http.ResponseWriter, r *http.Request, batch bool, limit int64, maxDrives int) (*seriesBody, error) {
	b := bodyPool.Get().(*seriesBody)
	raw, cut, err := readBody(w, r, limit, b.raw[:0])
	b.raw = raw
	if err == nil {
		err = b.decode(batch, cut, limit, maxDrives)
	}
	if err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

// readBody reads r's body into buf, at most limit bytes. cut reports a
// body longer than limit: buf then holds its first limit bytes.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) (_ []byte, cut bool, _ error) {
	if n := r.ContentLength; n > 0 && n <= limit && int64(cap(buf)) <= n {
		buf = make([]byte, 0, n+1) // +1: the read that sees EOF needs room
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(512, cap(buf)))
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == nil:
			continue
		case err == io.EOF:
			return buf, false, nil
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return buf, true, nil
		}
		return buf, false, &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("bad request body: %v", err)}
	}
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// errEnd is running out of input inside a value.
var errEnd = errors.New("unexpected end of JSON input")

var (
	keyModel   = []byte("model")
	keyDrives  = []byte("drives")
	keyDriveID = []byte("drive_id")
	keyDay     = []byte("day")
	keyMWI     = []byte("mwi")
	keySeries  = []byte("series")
)

// decode parses b.raw as a score or batch body. cut marks a body read
// only up to limit bytes. Batch drives past maxDrives are checked but
// not kept: the batch is refused for its size whatever they hold.
func (b *seriesBody) decode(batch, cut bool, limit int64, maxDrives int) error {
	b.model, b.n, b.slab = "", 0, b.slab[:0]
	p := parser{buf: b.raw, b: b, maxDrives: maxDrives}
	if !batch {
		b.n, p.live = 1, 1
		if len(b.drives) == 0 {
			b.drives = append(b.drives, bodyDrive{})
		}
		b.drives[0].reset()
	}
	scalar, err := p.top(batch)
	if err == nil && cut && scalar && p.pos == len(p.buf) {
		// encoding/json ends a top-level scalar only at the byte after
		// it, so one running to the cut is unfinished.
		err = errEnd
	}
	if err == nil {
		p.space()
		switch {
		case p.saved != nil:
			err = p.saved
		case p.pos < len(p.buf):
			err = p.trailing(cut)
		case cut:
			err = errEnd
		}
	}
	switch {
	case err == nil:
		return nil
	case err == errEnd && cut:
		return &reqError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("body exceeds %d bytes", limit)}
	default:
		return &reqError{code: http.StatusBadRequest, msg: fmt.Sprintf("bad request body: %v", err)}
	}
}

// trailing reports the bytes after the body's value as encoding/json's
// trailing-data check does. That check reads one more token: a
// delimiter at once, anything else as a value, which (a scalar) is
// unfinished if it runs to a cut.
func (p *parser) trailing(cut bool) error {
	if cut && strings.IndexByte("[]{},:", p.buf[p.pos]) < 0 {
		if err := p.skip(0); err == errEnd || err == nil && p.pos == len(p.buf) {
			return errEnd
		}
	}
	return errors.New("trailing data after JSON body")
}

// parser is one decode pass. Syntax errors end it; type and range
// faults are saved (the first one) and the pass reads on, so a later
// syntax error or cut still decides the status, as with encoding/json.
type parser struct {
	buf       []byte
	pos       int
	saved     error
	b         *seriesBody
	live      int       // drive slots holding state (a shorter repeated "drives" array leaves the rest)
	maxDrives int       // slots kept; later drives decode into spare
	spare     bodyDrive // scratch for drives past maxDrives
	unq       []byte    // unquote scratch
}

// fault saves the first type or range fault.
func (p *parser) fault(format string, args ...any) {
	if p.saved == nil {
		p.saved = fmt.Errorf(format, args...)
	}
}

func (p *parser) syntax(what string) error {
	if p.pos < len(p.buf) {
		return fmt.Errorf("invalid character %q %s at offset %d", p.buf[p.pos], what, p.pos)
	}
	return errEnd
}

// slot returns drive slot i, emptied unless it holds state from an
// earlier "drives" array of the body.
func (p *parser) slot(i int) *bodyDrive {
	if i >= p.maxDrives {
		p.spare.reset()
		return &p.spare
	}
	b := p.b
	if i >= len(b.drives) {
		b.drives = append(b.drives, bodyDrive{})
	}
	d := &b.drives[i]
	if i >= p.live {
		d.reset()
		p.live = i + 1
	}
	return d
}

func (p *parser) space() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte.
func (p *parser) peek() (byte, error) {
	p.space()
	if p.pos >= len(p.buf) {
		return 0, errEnd
	}
	return p.buf[p.pos], nil
}

// top decodes the body's one top-level value; scalar reports one that
// is neither an object nor an array.
func (p *parser) top(batch bool) (scalar bool, err error) {
	c, err := p.peek()
	switch {
	case err != nil:
		return false, err
	case c == '{':
		return false, p.object(1, func(key []byte) error {
			switch {
			case bytes.EqualFold(key, keyModel):
				return p.model()
			case batch && bytes.EqualFold(key, keyDrives):
				return p.drives()
			case !batch:
				if ok, err := p.driveField(key, &p.b.drives[0], 1); ok {
					return err
				}
			}
			p.fault("unknown field %q", key)
			return p.skip(1)
		})
	case c == 'n': // a null body decodes to the zero request
		return true, p.literal("null")
	}
	p.fault("body is not an object")
	return c != '[', p.skip(0)
}

// object decodes the object at p.pos, the depth-th open container,
// calling member with each key once the ':' after it is read.
func (p *parser) object(depth int, member func(key []byte) error) error {
	if depth > maxDepth {
		return p.syntax("exceeds the maximum nesting depth")
	}
	p.pos++ // '{'
	c, err := p.peek()
	if err != nil || c == '}' {
		p.pos++
		return err
	}
	for {
		if c, err = p.peek(); err != nil {
			return err
		}
		if c != '"' {
			return p.syntax("looking for the beginning of an object key")
		}
		raw, plain, err := p.str()
		if err != nil {
			return err
		}
		if c, err = p.peek(); err != nil {
			return err
		}
		if c != ':' {
			return p.syntax("after an object key")
		}
		p.pos++
		if err := member(p.unquote(raw, plain)); err != nil {
			return err
		}
		if more, err := p.next('}'); err != nil || !more {
			return err
		}
	}
}

// next reads the separator after an element: true at ',', false at
// the container's closing byte.
func (p *parser) next(closing byte) (bool, error) {
	c, err := p.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case ',':
		p.pos++
		return true, nil
	case closing:
		p.pos++
		return false, nil
	}
	return false, p.syntax("after a value")
}

// array decodes the array at p.pos, the depth-th open container,
// calling elem for each element.
func (p *parser) array(depth int, elem func(i int) error) (int, error) {
	if depth > maxDepth {
		return 0, p.syntax("exceeds the maximum nesting depth")
	}
	p.pos++ // '['
	c, err := p.peek()
	if err != nil || c == ']' {
		p.pos++
		return 0, err
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		if more, err := p.next(']'); err != nil || !more {
			return i + 1, err
		}
	}
}

// skip checks the value at p.pos, inside depth open containers,
// without keeping it.
func (p *parser) skip(depth int) error {
	c, err := p.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '{':
		return p.object(depth+1, func([]byte) error { return p.skip(depth + 1) })
	case c == '[':
		_, err := p.array(depth+1, func(int) error { return p.skip(depth + 1) })
		return err
	case c == '"':
		_, _, err := p.str()
		return err
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := p.number()
		return err
	}
	return p.syntax("looking for the beginning of a value")
}

// literal reads the literal lit at p.pos.
func (p *parser) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if p.pos >= len(p.buf) {
			return errEnd
		}
		if p.buf[p.pos] != lit[i] {
			return p.syntax("in literal " + lit)
		}
		p.pos++
	}
	return nil
}

// number reads the JSON number at p.pos and returns its bytes.
func (p *parser) number() ([]byte, error) {
	b, start := p.buf, p.pos
	digits := func() {
		for p.pos < len(b) && '0' <= b[p.pos] && b[p.pos] <= '9' {
			p.pos++
		}
	}
	// need reads one required digit.
	need := func() error {
		if p.pos >= len(b) {
			return errEnd
		}
		if b[p.pos] < '0' || b[p.pos] > '9' {
			return p.syntax("in numeric literal")
		}
		p.pos++
		return nil
	}
	if b[p.pos] == '-' {
		p.pos++
	}
	if p.pos < len(b) && b[p.pos] == '0' {
		p.pos++
	} else {
		if err := need(); err != nil {
			return nil, err
		}
		digits()
	}
	if p.pos < len(b) && b[p.pos] == '.' {
		p.pos++
		if err := need(); err != nil {
			return nil, err
		}
		digits()
	}
	if p.pos < len(b) && (b[p.pos] == 'e' || b[p.pos] == 'E') {
		p.pos++
		if p.pos < len(b) && (b[p.pos] == '+' || b[p.pos] == '-') {
			p.pos++
		}
		if err := need(); err != nil {
			return nil, err
		}
		digits()
	}
	return b[start:p.pos], nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// parseFloat is strconv.ParseFloat(num, 64) for a JSON number. A plain
// decimal of at most 15 digits takes a shortcut: its digits and its
// power of ten are exact float64s, so one correctly rounded division
// gives the correctly rounded value ParseFloat returns.
func parseFloat(num []byte) (float64, error) {
	digits := num
	if num[0] == '-' {
		digits = num[1:]
	}
	var mant uint64
	n, frac := 0, -1 // frac: digits after the point, -1 before it
	for _, c := range digits {
		switch {
		case '0' <= c && c <= '9':
			mant = mant*10 + uint64(c-'0')
			n++
			if frac >= 0 {
				frac++
			}
		case c == '.':
			frac = 0
		default: // an exponent
			return strconv.ParseFloat(string(num), 64)
		}
	}
	if n >= len(pow10) {
		return strconv.ParseFloat(string(num), 64)
	}
	f := float64(mant)
	if frac > 0 {
		f /= pow10[frac]
	}
	if num[0] == '-' {
		f = -f
	}
	return f, nil
}

// str reads the string at p.pos and returns its raw contents; plain
// reports contents without escapes or non-ASCII bytes, which are the
// string's value as they stand.
func (p *parser) str() (raw []byte, plain bool, err error) {
	b := p.buf
	start := p.pos + 1
	plain = true
	for i := start; ; {
		if i >= len(b) {
			p.pos = i
			return nil, false, errEnd
		}
		switch c := b[i]; {
		case c == '"':
			p.pos = i + 1
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(b) {
				p.pos = i
				return nil, false, errEnd
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i >= len(b) {
						p.pos = i
						return nil, false, errEnd
					}
					if unhex(b[i]) < 0 {
						p.pos = i
						return nil, false, p.syntax("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				p.pos = i
				return nil, false, p.syntax("in string escape code")
			}
		case c < ' ':
			p.pos = i
			return nil, false, p.syntax("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
}

func unhex(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the \uXXXX escape starting at s, or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r*16 + h
	}
	return r
}

// unquote returns the value of a string str read, decoded as
// encoding/json decodes it: escapes resolved, and an unpaired
// surrogate escape or an invalid UTF-8 byte becoming U+FFFD. The
// result aliases the body or the parser's scratch, valid until the
// next unquote.
func (p *parser) unquote(raw []byte, plain bool) []byte {
	if plain {
		return raw
	}
	out := p.unq[:0]
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			e := raw[r+1]
			if e != 'u' {
				out = append(out, unescape(e))
				r += 2
				continue
			}
			rr := u4(raw[r:])
			r += 6
			if utf16.IsSurrogate(rr) {
				if dec := utf16.DecodeRune(rr, u4(raw[r:])); dec != utf8.RuneError {
					out = utf8.AppendRune(out, dec)
					r += 6
					continue
				}
				rr = utf8.RuneError
			}
			out = utf8.AppendRune(out, rr)
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	p.unq = out
	return out
}

// unescape maps a one-character escape to its byte.
func unescape(e byte) byte {
	switch e {
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return e // '"', '\\', '/'
}

// model decodes the "model" value: a string, or null for no change.
func (p *parser) model() error {
	c, err := p.peek()
	switch {
	case err != nil:
		return err
	case c == '"':
		raw, plain, err := p.str()
		if err == nil {
			p.b.model = string(p.unquote(raw, plain))
		}
		return err
	case c == 'n':
		return p.literal("null")
	}
	p.fault("model: want a string")
	return p.skip(1)
}

// drives decodes the batch's "drives" value. Element i decodes into
// drive slot i, over what an earlier "drives" array left there; an
// empty array or null drops every slot.
func (p *parser) drives() error {
	c, err := p.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		p.b.n, p.live = 0, 0
		return p.literal("null")
	case c != '[':
		p.fault("drives: want an array")
		return p.skip(1)
	}
	n, err := p.array(2, func(i int) error {
		d := p.slot(i)
		c, err := p.peek()
		switch {
		case err != nil:
			return err
		case c == '{':
			return p.object(3, func(key []byte) error {
				if ok, err := p.driveField(key, d, 3); ok {
					return err
				}
				p.fault("unknown field %q", key)
				return p.skip(3)
			})
		case c == 'n':
			return p.literal("null")
		}
		p.fault("drive %d: want an object", i)
		return p.skip(2)
	})
	if n == 0 {
		p.live = 0
	}
	p.b.n = n
	return err
}

// driveField decodes member key of a drive object, depth containers
// deep, into d. It reports false, having read nothing, when key names
// no drive field (at a score body's top level the caller then treats
// it as unknown).
func (p *parser) driveField(key []byte, d *bodyDrive, depth int) (bool, error) {
	switch {
	case bytes.EqualFold(key, keyDriveID):
		return true, p.optInt(&d.driveID, &d.hasDriveID, depth)
	case bytes.EqualFold(key, keyDay):
		return true, p.optInt(&d.day, &d.hasDay, depth)
	case bytes.EqualFold(key, keyMWI):
		return true, p.optFloat(&d.mwi, &d.hasMWI, depth)
	case bytes.EqualFold(key, keySeries):
		return true, p.series(d, depth)
	}
	return false, nil
}

// optInt decodes an optional integer: a number (*has set) or null
// (cleared).
func (p *parser) optInt(v *int, has *bool, depth int) error {
	c, err := p.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		*has = false
		return p.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		num, err := p.number()
		if err != nil {
			return err
		}
		n, perr := strconv.ParseInt(string(num), 10, 64)
		if perr != nil {
			p.fault("number %s is not an int", num)
		}
		*v, *has = int(n), true
		return nil
	}
	p.fault("want an integer")
	return p.skip(depth)
}

// optFloat decodes an optional number: a number (*has set) or null
// (cleared).
func (p *parser) optFloat(v *float64, has *bool, depth int) error {
	c, err := p.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		*has = false
		return p.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		num, err := p.number()
		if err != nil {
			return err
		}
		f, perr := parseFloat(num)
		if perr != nil {
			p.fault("number %s is out of range", num)
		}
		*v, *has = f, true
		return nil
	}
	p.fault("want a number")
	return p.skip(depth)
}

// series decodes a drive's "series" value, depth containers deep: an
// object merged into the drive's series, or null dropping it.
func (p *parser) series(d *bodyDrive, depth int) error {
	c, err := p.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		d.resetSeries()
		return p.literal("null")
	case c != '{':
		p.fault("series: want an object")
		return p.skip(depth)
	}
	d.inline = true
	return p.object(depth+1, func(name []byte) error {
		feat, known := featByName[string(name)]
		if !known && !d.hasUnknown {
			d.hasUnknown, d.unknownAt, d.unknownName = true, len(d.cols), string(name)
		}
		lo, hi, err := p.column(depth + 1)
		if known && err == nil {
			d.setColumn(feat, lo, hi)
		}
		return err
	})
}

// column decodes a series column, depth containers deep, into the
// slab and returns its span: an array of numbers, where null is a
// missing reading (NaN), or null for no values.
func (p *parser) column(depth int) (lo, hi int, err error) {
	c, err := p.peek()
	switch {
	case err != nil:
		return 0, 0, err
	case c == 'n':
		return 0, 0, p.literal("null")
	case c != '[':
		p.fault("series column: want an array")
		return 0, 0, p.skip(depth)
	}
	b := p.b
	lo = len(b.slab)
	_, err = p.array(depth+1, func(int) error {
		c, err := p.peek()
		switch {
		case err != nil:
			return err
		case c == '-' || '0' <= c && c <= '9':
			num, err := p.number()
			if err != nil {
				return err
			}
			v, perr := parseFloat(num)
			if perr != nil {
				p.fault("number %s is out of range", num)
			}
			b.slab = append(b.slab, v)
			return nil
		case c == 'n':
			b.slab = append(b.slab, math.NaN())
			return p.literal("null")
		}
		p.fault("series value: want a number or null")
		b.slab = append(b.slab, 0)
		return p.skip(depth + 1)
	})
	return lo, len(b.slab), err
}
