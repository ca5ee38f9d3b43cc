// Package checkpoint is the versioned binary container the simulator's
// state-bearing packages serialize themselves through. A checkpoint is a
// fixed magic + format version header followed by named sections, each a
// length-prefixed payload protected by a CRC-32 checksum, closed by an end
// marker. The framing is deliberately dumb: every multi-byte value is
// little-endian, floats travel as their IEEE-754 bit patterns (so a decoded
// state is bit-identical to the encoded one, spares and all), and slices
// carry explicit element counts bounded by the section length.
//
// One Codec type both writes and reads a stream, so each state type lists
// its fields once, in one method, and the write and read layouts cannot
// drift apart. The Codec is sticky-error: the first failure latches and
// every later call is a no-op, so state methods chain value calls without
// per-call error checks and the caller inspects the error once. Reading
// never panics on hostile input — truncated streams, flipped bytes and
// oversized counts all surface as errors, which this package's corruption
// tests and internal/sim's FuzzReadCheckpoint pin down.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Version is the checkpoint format version, the only one NewReader accepts.
// Bump it whenever the section layout or any section's internal encoding
// changes, so a checkpoint written by another build is refused with a
// precise error instead of misread.
const Version = 7

// magic identifies a checkpoint stream. The trailing byte breaks accidental
// matches against text files.
var magic = [8]byte{'J', 'B', 'S', 'D', 'C', 'K', 'P', 0x1a}

// maxName bounds section names; real names are short identifiers.
const maxName = 255

// ErrCorrupt tags every structural decode failure (bad framing, checksum
// mismatch, truncation, oversized counts), so callers can distinguish a
// damaged file from an incompatible one with errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt stream")

// endMarker terminates the section list (an impossible name length).
const endMarker = 0xFFFFFFFF

// Codec writes or reads a checkpoint stream section by section. A state
// type persists itself with one method that passes the address of each of
// its fields, in order, to the value methods: on a Codec opened with
// NewWriter each call appends the field's value to the open section, on
// one opened with NewReader it overwrites the field with the section's next
// value. Writing never stores into the state it writes. Checks of the
// decoded values, and any work only a restore needs, go in branches taken
// when Reading reports true.
type Codec struct {
	dst  io.Writer // the stream being written; nil when reading
	src  io.Reader // the stream being read; nil when writing
	buf  []byte    // the open section's payload
	pos  int       // reading: the next undecoded byte of buf
	name string    // the open section; "" before the first
	err  error
}

// NewWriter starts a checkpoint stream on dst by writing the magic and
// format version.
func NewWriter(dst io.Writer) *Codec {
	c := &Codec{dst: dst}
	var hdr [12]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	if _, err := dst.Write(hdr[:]); err != nil {
		c.err = fmt.Errorf("checkpoint: write header: %w", err)
	}
	return c
}

// NewReader opens a checkpoint stream, validating the magic and format
// version with precise errors.
func NewReader(src io.Reader) (*Codec, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic %q (not a checkpoint stream)", ErrCorrupt, hdr[:8])
	}
	v := binary.LittleEndian.Uint32(hdr[8:])
	if v != Version {
		return nil, fmt.Errorf("checkpoint: format version %d is not supported (this build reads version %d only)", v, Version)
	}
	return &Codec{src: src}, nil
}

// Reading reports whether the codec reads a stream (NewReader) rather than
// writes one (NewWriter).
func (c *Codec) Reading() bool { return c.src != nil }

// Section ends the open section and begins the next, named name. Writing,
// it flushes the open section with its framing and checksum. Reading, the
// next section in the stream must be named name, and the open one must have
// no undecoded bytes left — a layout mismatch is corruption, not something
// to skip silently. It returns the codec's error.
func (c *Codec) Section(name string) error {
	if c.err != nil {
		return c.err
	}
	if !c.Reading() {
		if len(name) == 0 || len(name) > maxName {
			c.err = fmt.Errorf("checkpoint: invalid section name %q", name)
			return c.err
		}
		c.flush()
		c.name = name
		c.buf = c.buf[:0]
		return c.err
	}
	if !c.drained() {
		return c.err
	}
	var pre [4]byte
	if _, err := io.ReadFull(c.src, pre[:]); err != nil {
		return c.corrupt("truncated before section %q: %v", name, err)
	}
	nameLen := binary.LittleEndian.Uint32(pre[:])
	if nameLen == endMarker {
		return c.corrupt("stream ended before section %q", name)
	}
	if nameLen == 0 || nameLen > maxName {
		return c.corrupt("section name length %d out of range", nameLen)
	}
	hdr := make([]byte, nameLen+8)
	if _, err := io.ReadFull(c.src, hdr); err != nil {
		return c.corrupt("truncated section header: %v", err)
	}
	if got := string(hdr[:nameLen]); got != name {
		return c.corrupt("section %q where %q was expected", got, name)
	}
	payloadLen := binary.LittleEndian.Uint64(hdr[nameLen:])
	// CopyN grows the buffer as data actually arrives, so a corrupted huge
	// length fails on truncation instead of attempting one giant allocation.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, c.src, int64(payloadLen)); err != nil || payloadLen > math.MaxInt64 {
		return c.corrupt("truncated section %q payload: %v", name, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(c.src, crc[:]); err != nil {
		return c.corrupt("truncated section %q checksum: %v", name, err)
	}
	if binary.LittleEndian.Uint32(crc[:]) != crc32.ChecksumIEEE(payload.Bytes()) {
		return c.corrupt("section %q checksum mismatch", name)
	}
	c.buf, c.pos, c.name = payload.Bytes(), 0, name
	return nil
}

// flush writes the open section as three writes — its frame, its payload
// and its checksum — so the payload is never copied.
func (c *Codec) flush() {
	if c.err != nil || c.name == "" {
		return
	}
	frame := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(c.name)+8), uint32(len(c.name)))
	frame = append(frame, c.name...)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(c.buf)))
	crc := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(c.buf))
	for _, b := range [][]byte{frame, c.buf, crc} {
		if _, err := c.dst.Write(b); err != nil {
			c.err = fmt.Errorf("checkpoint: write section %q: %w", c.name, err)
			return
		}
	}
}

// drained latches a corruption error if the open section has undecoded
// bytes left, and reports whether the codec is still error-free.
func (c *Codec) drained() bool {
	if c.err == nil && c.pos != len(c.buf) {
		c.corrupt("section %q has %d undecoded bytes", c.name, len(c.buf)-c.pos)
	}
	return c.err == nil
}

// corrupt latches an ErrCorrupt-tagged error and returns it.
func (c *Codec) corrupt(format string, args ...any) error {
	c.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	return c.err
}

// Close ends the stream. Writing, it flushes the last section and writes
// the end marker; reading, it requires the last section to be fully decoded
// and the end marker to follow it. It does not close the underlying stream
// and returns the codec's error.
func (c *Codec) Close() error {
	if !c.Reading() {
		c.flush()
		if c.err == nil {
			if _, err := c.dst.Write(binary.LittleEndian.AppendUint32(nil, endMarker)); err != nil {
				c.err = fmt.Errorf("checkpoint: write end marker: %w", err)
			}
		}
		return c.err
	}
	if !c.drained() {
		return c.err
	}
	var pre [4]byte
	if _, err := io.ReadFull(c.src, pre[:]); err != nil {
		return c.corrupt("truncated before end marker: %v", err)
	}
	if binary.LittleEndian.Uint32(pre[:]) != endMarker {
		return c.corrupt("trailing sections after the last expected one")
	}
	return nil
}

// Err returns the first error the codec hit, if any.
func (c *Codec) Err() error { return c.err }

// Fail latches a semantic error raised by a state method, such as a decoded
// count that does not match the receiver's dimensions.
func (c *Codec) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("checkpoint: section %q: "+format, append([]any{c.name}, args...)...)
	}
}

// take returns the next n payload bytes, or latches a corruption error and
// returns nil.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.buf)-c.pos {
		c.corrupt("section %q: read past section end", c.name)
		return nil
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b
}

// U64 appends or reads an unsigned 64-bit value.
func (c *Codec) U64(p *uint64) {
	if !c.Reading() {
		if c.err == nil {
			c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
		}
		return
	}
	if b := c.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// I64 appends or reads a signed 64-bit value.
func (c *Codec) I64(p *int64) {
	v := uint64(*p)
	c.U64(&v)
	if c.Reading() {
		*p = int64(v)
	}
}

// Int appends or reads an int as 64 bits, so the encoding is
// platform-independent.
func (c *Codec) Int(p *int) {
	v := uint64(int64(*p))
	c.U64(&v)
	if c.Reading() {
		*p = int(int64(v))
	}
}

// F64 appends or reads a float64 as its IEEE-754 bit pattern.
func (c *Codec) F64(p *float64) {
	v := math.Float64bits(*p)
	c.U64(&v)
	if c.Reading() {
		*p = math.Float64frombits(v)
	}
}

// Bool appends or reads a boolean as one byte; reading any byte other than
// 0 or 1 is corruption.
func (c *Codec) Bool(p *bool) {
	if !c.Reading() {
		b := byte(0)
		if *p {
			b = 1
		}
		if c.err == nil {
			c.buf = append(c.buf, b)
		}
		return
	}
	b := c.take(1)
	switch {
	case b == nil:
	case b[0] <= 1:
		*p = b[0] == 1
	default:
		c.corrupt("section %q: invalid boolean byte %d", c.name, b[0])
	}
}

// count appends or reads a slice element count; n is the count to write.
// Reading, it verifies that count*elemSize bytes actually remain in the
// section, so a corrupted count cannot trigger a huge allocation or a
// partial decode, and returns 0 on error.
func (c *Codec) count(n, elemSize int) int {
	if !c.Reading() {
		if c.err == nil && (n < 0 || uint64(n) > math.MaxUint32) {
			c.err = fmt.Errorf("checkpoint: element count %d out of range", n)
		}
		if c.err == nil {
			c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(n))
		}
		return n
	}
	b := c.take(4)
	if b == nil {
		return 0
	}
	n = int(binary.LittleEndian.Uint32(b))
	if n*elemSize > len(c.buf)-c.pos {
		c.corrupt("section %q: element count %d exceeds section size", c.name, n)
		return 0
	}
	return n
}

// Bytes appends or reads a count-prefixed byte slice; reading replaces *p
// with a copy of the payload bytes.
func (c *Codec) Bytes(p *[]byte) {
	n := c.count(len(*p), 1)
	if !c.Reading() {
		if c.err == nil {
			c.buf = append(c.buf, *p...)
		}
		return
	}
	if b := c.take(n); b != nil {
		*p = append([]byte(nil), b...)
	}
}

// F64s appends or reads a count-prefixed float64 slice; reading replaces
// *p's elements, reusing its backing array when it is large enough.
func (c *Codec) F64s(p *[]float64) {
	if n := c.count(len(*p), 8); c.Reading() {
		*p = slices.Grow((*p)[:0], n)[:n]
	}
	for i := range *p {
		c.F64(&(*p)[i])
	}
}

// FillF64s appends or reads a count-prefixed float64 slice in place: the
// stored count must be exactly len(dst), so every alias into the
// destination array is preserved.
func (c *Codec) FillF64s(dst []float64) {
	if n := c.count(len(dst), 8); n != len(dst) {
		c.Fail("expected %d float64 elements, got %d", len(dst), n)
		return
	}
	for i := range dst {
		c.F64(&dst[i])
	}
}

// Ints appends or reads a count-prefixed int slice (64 bits per element),
// reusing *p's backing array like F64s.
func (c *Codec) Ints(p *[]int) {
	if n := c.count(len(*p), 8); c.Reading() {
		*p = slices.Grow((*p)[:0], n)[:n]
	}
	for i := range *p {
		c.Int(&(*p)[i])
	}
}

// FillBools appends or reads a count-prefixed boolean slice (one byte per
// element) in place, length-checked like FillF64s.
func (c *Codec) FillBools(dst []bool) {
	if n := c.count(len(dst), 1); n != len(dst) {
		c.Fail("expected %d boolean elements, got %d", len(dst), n)
		return
	}
	for i := range dst {
		c.Bool(&dst[i])
	}
}
