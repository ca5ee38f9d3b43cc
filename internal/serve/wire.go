package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"jabasd/internal/core"
	"jabasd/internal/mac"
)

// The oracle's wire path: a one-pass decoder for OracleRequest and an
// encoder for OracleResponse, written against the standard library's
// strconv and unicode packages instead of encoding/json's reflection.
//
// Parity contract. decodeOracleRequest accepts exactly the bodies that
// json.NewDecoder(bytes.NewReader(body)).Decode(req) accepts and leaves req
// holding the same value, for any starting req:
//
//   - only the first JSON value is read; bytes after it are ignored;
//   - a top-level null leaves req unchanged;
//   - keys match their field exactly, else under encoding/json's case
//     folding; unknown keys are skipped, whatever their value;
//   - a repeated key decodes again into the field, so a repeated object
//     merges into the struct and the last scalar wins;
//   - null sets a slice or the mac pointer to nil and leaves a scalar or a
//     struct unchanged;
//   - an array decodes into the slice's existing elements and capacity, an
//     empty array leaves an empty non-nil slice, and an object decodes into
//     the existing mac.Config;
//   - integer fields refuse fractions, exponents and out-of-range values,
//     seed refuses negatives, and floats refuse values beyond float64;
//   - objective.Kind goes through core.ObjectiveKind.UnmarshalJSON on the
//     raw value;
//   - strings unquote like encoding/json, invalid UTF-8 and unpaired
//     surrogates included, and nesting deeper than maxNesting is refused.
//
// appendOracleResponse writes the bytes json.NewEncoder(w).Encode writes.
// FuzzOracleDecode and the encoder tests hold both to encoding/json, which
// stays the reference in the tests only.

// maxNesting is encoding/json's limit on nested arrays and objects.
const maxNesting = 10000

// JSON names of the decoded structs' fields, in encoding/json's spelling:
// the struct tag where there is one, else the Go field name.
var (
	oracleFields    = [...]string{"scheduler", "seed", "requests", "region", "max_ratio", "objective", "mac"}
	requestFields   = [...]string{"UserID", "SizeBits", "WaitingTime", "SetupDelay", "Priority", "AvgThroughput", "MaxRatio"}
	regionFields    = [...]string{"Coeff", "Bound", "Cells"}
	objectiveFields = [...]string{"Kind", "Lambda", "RateScale"}
	macFields       = [...]string{"T2", "T3", "D1", "D2"}
)

// decodeOracleRequest decodes body into req, reusing the capacity of req's
// slices and its MAC storage, with encoding/json's semantics (see the
// parity contract above).
func decodeOracleRequest(body []byte, req *OracleRequest) error {
	d := oracleDecoder{data: body}
	return d.decode(req)
}

// oracleDecoder is one pass over a request body.
type oracleDecoder struct {
	data  []byte
	pos   int
	depth int
	// spare, when set, is the storage a "mac" object decodes into when
	// req.MAC is nil, in place of a new allocation.
	spare *mac.Config
	// buf holds the last unquoted string.
	buf []byte
	// seen records which slice fields had a key in the body.
	seen uint8
}

// Bits of oracleDecoder.seen.
const (
	seenRequests uint8 = 1 << iota
	seenCoeff
	seenBound
	seenCells
)

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

func (d *oracleDecoder) syntaxError(what string) error {
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], what, d.pos)
}

// typeError reports the value at d.pos as of the wrong JSON type for a
// field of type typ, or as a syntax error if no value starts there.
func (d *oracleDecoder) typeError(typ string) error {
	var what string
	switch c := d.data[d.pos]; {
	case c == '{':
		what = "object"
	case c == '[':
		what = "array"
	case c == '"':
		what = "string"
	case c == 't' || c == 'f':
		what = "bool"
	case c == 'n':
		what = "null"
	case c == '-' || '0' <= c && c <= '9':
		what = "number"
	default:
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into a %s at offset %d", what, typ, d.pos)
}

// peek skips whitespace and returns the byte that starts the next token.
func (d *oracleDecoder) peek() (byte, error) {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, nil
		}
	}
	return 0, errUnexpectedEnd
}

// literal consumes the literal word (true, false or null) at d.pos.
func (d *oracleDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos >= len(d.data) {
			return errUnexpectedEnd
		}
		if d.data[d.pos] != word[i] {
			return d.syntaxError("in literal " + word)
		}
		d.pos++
	}
	return nil
}

// open consumes the '{' or '[' at d.pos.
func (d *oracleDecoder) open() error {
	if d.depth++; d.depth > maxNesting {
		return fmt.Errorf("exceeded max nesting depth at offset %d", d.pos)
	}
	d.pos++
	return nil
}

// next advances to the next element of the array or object opened last,
// consuming the comma before it, and reports whether there is one; at the
// end it consumes the closing bracket. first is true on the first call.
func (d *oracleDecoder) next(first bool, end byte) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch {
	case c == end:
		d.pos++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.pos++
		return true, nil
	}
	if end == '}' {
		return false, d.syntaxError("after object key:value pair")
	}
	return false, d.syntaxError("after array element")
}

// key advances to the next key of the object opened last and consumes it
// with its colon. It returns the unquoted key, or false at the object's
// end.
func (d *oracleDecoder) key(first bool) ([]byte, bool, error) {
	more, err := d.next(first, '}')
	if !more || err != nil {
		return nil, false, err
	}
	c, err := d.peek()
	if err != nil {
		return nil, false, err
	}
	if c != '"' {
		return nil, false, d.syntaxError("looking for beginning of object key string")
	}
	key, plain, err := d.str()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		key = d.unquote(key)
	}
	if c, err = d.peek(); err != nil {
		return nil, false, err
	}
	if c != ':' {
		return nil, false, d.syntaxError("after object key")
	}
	d.pos++
	return key, true, nil
}

// str consumes the string whose opening quote is at d.pos. It returns the
// raw bytes between the quotes, and whether they are plain: no escape and
// no byte outside ASCII, so that they need no unquoting.
func (d *oracleDecoder) str() ([]byte, bool, error) {
	data := d.data
	start := d.pos + 1
	plain := true
	for i := start; i < len(data); {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return data[start:i], plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				return nil, false, errUnexpectedEnd
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(data) {
						return nil, false, errUnexpectedEnd
					}
					if unhex(data[k]) < 0 {
						d.pos = k
						return nil, false, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.pos = i + 1
				return nil, false, d.syntaxError("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.syntaxError("in string literal")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	return nil, false, errUnexpectedEnd
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

// u4 decodes the \uXXXX escape at the start of s, or returns -1.
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
		r = r<<4 | h
	}
	return r
}

// unquote decodes the escapes of the raw string contents s, which str has
// validated, into d.buf and returns it. Invalid UTF-8 and unpaired
// surrogates become U+FFFD, as in encoding/json.
func (d *oracleDecoder) unquote(s []byte) []byte {
	b := d.buf[:0]
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := u4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, u4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	d.buf = b
	return b
}

// number consumes the number at d.pos and returns its bytes.
func (d *oracleDecoder) number() ([]byte, error) {
	data, i := d.data, d.pos
	digits := func() error {
		if i >= len(data) {
			return errUnexpectedEnd
		}
		if c := data[i]; c < '0' || c > '9' {
			d.pos = i
			return d.syntaxError("in numeric literal")
		}
		for i++; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		}
		return nil
	}
	if data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if err := digits(); err != nil {
		return nil, err
	}
	if i < len(data) && data[i] == '.' {
		i++
		if err := digits(); err != nil {
			return nil, err
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if err := digits(); err != nil {
			return nil, err
		}
	}
	start := d.pos
	d.pos = i
	return data[start:i], nil
}

// skip consumes one value of any type.
func (d *oracleDecoder) skip() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, more, err := d.key(first)
			if !more || err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.next(first, ']')
			if !more || err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	if c == '-' || '0' <= c && c <= '9' {
		_, err := d.number()
		return err
	}
	return d.syntaxError("looking for beginning of value")
}

// scalar consumes the next value, which must be a number or null, and
// returns its bytes, or nil for null.
func (d *oracleDecoder) scalar(typ string) ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c == 'n' {
		return nil, d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return nil, d.typeError(typ)
	}
	return d.number()
}

func (d *oracleDecoder) float(p *float64) error {
	b, err := d.scalar("float64")
	if b == nil || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into a float64 at offset %d", b, d.pos-len(b))
	}
	*p = f
	return nil
}

func (d *oracleDecoder) int(p *int) error {
	b, err := d.scalar("int")
	if b == nil || err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into an int at offset %d", b, d.pos-len(b))
	}
	*p = int(n)
	return nil
}

func (d *oracleDecoder) uint64(p *uint64) error {
	b, err := d.scalar("uint64")
	if b == nil || err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into a uint64 at offset %d", b, d.pos-len(b))
	}
	*p = n
	return nil
}

// scheduler decodes the scheduler name.
func (d *oracleDecoder) scheduler(p *string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.typeError("string")
	}
	b, plain, err := d.str()
	if err != nil {
		return err
	}
	if !plain {
		b = d.unquote(b)
	}
	*p = string(b)
	return nil
}

// opens consumes the bracket, '[' or '{', that must start the next value.
// It returns false when the value is null, which the caller handles.
func (d *oracleDecoder) opens(bracket byte, typ string) (bool, error) {
	c, err := d.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 'n':
		return false, d.literal("null")
	case bracket:
		if err := d.open(); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, d.typeError(typ)
}

// element returns s with element i in reach, the way encoding/json extends
// a slice: within the length the element keeps its value, within the
// capacity the length grows over the old contents, and beyond it the slice
// grows by a zero element.
func element[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	var zero T
	return append(s, zero)
}

// truncate cuts s to the n elements an array held; an empty array leaves
// an empty, non-nil slice.
func truncate[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// array decodes the array that starts the next value into *p with elem,
// or sets *p to nil on null.
func array[T any](d *oracleDecoder, p *[]T, typ string, elem func(*oracleDecoder, *T) error) error {
	ok, err := d.opens('[', typ)
	if !ok {
		if err == nil {
			*p = nil
		}
		return err
	}
	s := *p
	n := 0
	for ; ; n++ {
		more, err := d.next(n == 0, ']')
		if err != nil {
			return err
		}
		if !more {
			break
		}
		s = element(s, n)
		if err := elem(d, &s[n]); err != nil {
			return err
		}
	}
	*p = truncate(s, n)
	return nil
}

func floatElem(d *oracleDecoder, p *float64) error { return d.float(p) }
func intElem(d *oracleDecoder, p *int) error       { return d.int(p) }
func rowElem(d *oracleDecoder, p *[]float64) error { return array(d, p, "[]float64", floatElem) }

// fieldIndex returns the index in names of the field key selects, or -1:
// an exact match first, then a match under encoding/json's case folding.
func fieldIndex(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	folded := foldKey(arr[:0], key)
	for i, n := range names {
		if equalFolded(folded, n) {
			return i
		}
	}
	return -1
}

// foldKey appends encoding/json's folded form of key: ASCII letters upper
// case, every other rune the smallest rune of its Unicode fold orbit.
func foldKey(dst, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// equalFolded reports whether folded is the folded form of the ASCII field
// name.
func equalFolded(folded []byte, name string) bool {
	if len(folded) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if folded[i] != c {
			return false
		}
	}
	return true
}

func (d *oracleDecoder) decode(req *OracleRequest) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '{':
		return d.oracleRequest(req)
	}
	if err := d.skip(); err != nil {
		return err
	}
	return fmt.Errorf("cannot decode a value starting with %q into an oracle request", c)
}

func (d *oracleDecoder) oracleRequest(req *OracleRequest) error {
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.key(first)
		if !more || err != nil {
			return err
		}
		switch fieldIndex(key, oracleFields[:]) {
		case 0:
			err = d.scheduler(&req.Scheduler)
		case 1:
			err = d.uint64(&req.Seed)
		case 2:
			d.seen |= seenRequests
			err = array(d, &req.Requests, "[]core.Request", (*oracleDecoder).request)
		case 3:
			err = d.region(req)
		case 4:
			err = d.int(&req.MaxRatio)
		case 5:
			err = d.objective(&req.Objective)
		case 6:
			err = d.mac(&req.MAC)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *oracleDecoder) request(r *core.Request) error {
	if ok, err := d.opens('{', "core.Request"); !ok {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.key(first)
		if !more || err != nil {
			return err
		}
		switch fieldIndex(key, requestFields[:]) {
		case 0:
			err = d.int(&r.UserID)
		case 1:
			err = d.float(&r.SizeBits)
		case 2:
			err = d.float(&r.WaitingTime)
		case 3:
			err = d.float(&r.SetupDelay)
		case 4:
			err = d.float(&r.Priority)
		case 5:
			err = d.float(&r.AvgThroughput)
		case 6:
			err = d.int(&r.MaxRatio)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *oracleDecoder) region(req *OracleRequest) error {
	if ok, err := d.opens('{', "measurement.Region"); !ok {
		return err
	}
	r := &req.Region
	for first := true; ; first = false {
		key, more, err := d.key(first)
		if !more || err != nil {
			return err
		}
		switch fieldIndex(key, regionFields[:]) {
		case 0:
			d.seen |= seenCoeff
			err = array(d, &r.Coeff, "[][]float64", rowElem)
		case 1:
			d.seen |= seenBound
			err = array(d, &r.Bound, "[]float64", floatElem)
		case 2:
			d.seen |= seenCells
			err = array(d, &r.Cells, "[]int", intElem)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *oracleDecoder) objective(o *core.Objective) error {
	if ok, err := d.opens('{', "core.Objective"); !ok {
		return err
	}
	for first := true; ; first = false {
		key, more, err := d.key(first)
		if !more || err != nil {
			return err
		}
		switch fieldIndex(key, objectiveFields[:]) {
		case 0:
			err = d.kind(&o.Kind)
		case 1:
			err = d.float(&o.Lambda)
		case 2:
			err = d.float(&o.RateScale)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// kind hands the raw value to ObjectiveKind's own decoder, as
// encoding/json does for a json.Unmarshaler.
func (d *oracleDecoder) kind(k *core.ObjectiveKind) error {
	if _, err := d.peek(); err != nil {
		return err
	}
	start := d.pos
	if err := d.skip(); err != nil {
		return err
	}
	return k.UnmarshalJSON(d.data[start:d.pos])
}

func (d *oracleDecoder) mac(p **mac.Config) error {
	if ok, err := d.opens('{', "mac.Config"); !ok {
		if err == nil {
			*p = nil
		}
		return err
	}
	if *p == nil {
		if d.spare != nil {
			*d.spare = mac.Config{}
			*p = d.spare
		} else {
			*p = new(mac.Config)
		}
	}
	c := *p
	for first := true; ; first = false {
		key, more, err := d.key(first)
		if !more || err != nil {
			return err
		}
		switch fieldIndex(key, macFields[:]) {
		case 0:
			err = d.float(&c.T2)
		case 1:
			err = d.float(&c.T3)
		case 2:
			err = d.float(&c.D1)
		case 3:
			err = d.float(&c.D2)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// appendOracleResponse appends r as json.NewEncoder(w).Encode(r) writes it:
// the same field order, float format, string escaping and trailing
// newline. r.Objective must be finite; encoding/json refuses the others,
// and handleOracle answers 400 before it gets here.
func appendOracleResponse(dst []byte, r OracleResponse) []byte {
	dst = append(dst, `{"ratios":`...)
	if r.Ratios == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, m := range r.Ratios {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(m), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"objective":`...)
	dst = appendJSONFloat(dst, r.Objective)
	dst = append(dst, `,"scheduler":`...)
	dst = appendJSONString(dst, r.Scheduler)
	dst = append(dst, `,"served":`...)
	dst = strconv.AppendInt(dst, int64(r.Served), 10)
	dst = append(dst, `,"total_ratio":`...)
	dst = strconv.AppendInt(dst, int64(r.TotalRatio), 10)
	return append(dst, "}\n"...)
}

// appendJSONFloat formats a finite f like encoding/json: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent left unpadded.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString quotes s like encoding/json with HTML escaping on:
// control characters, '"', '\\', '<', '>' and '&' are escaped, invalid
// UTF-8 becomes \ufffd, and U+2028 and U+2029 are escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
