// Package checkpoint is the versioned binary container the simulator's
// state-bearing packages serialize themselves through. A checkpoint is a
// fixed magic + format version header followed by named sections, each a
// length-prefixed payload protected by a CRC-32 checksum, closed by an end
// marker. The framing is deliberately dumb: every multi-byte value is
// little-endian, floats travel as their IEEE-754 bit patterns (so a decoded
// state is bit-identical to the encoded one, spares and all), and slices
// carry explicit element counts bounded by the section length.
//
// Writer and Reader are sticky-error: the first failure latches and every
// later call is a no-op, so state Encode/Decode methods chain primitive
// calls without per-call error checks and the caller inspects Err once per
// section. The Reader never panics on hostile input — truncated streams,
// flipped bytes and oversized counts all surface as errors, which the fuzz
// tests in this package and in internal/sim pin down.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the checkpoint format version, the only one a Reader accepts.
// Bump it whenever the section layout or any section's internal encoding
// changes, so a checkpoint written by another build is refused with a
// precise error instead of misread.
const Version = 5

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

// Writer serializes a checkpoint stream section by section. Create one with
// NewWriter, open sections with Section, append values with the primitive
// methods and finish with Close. Errors are sticky; Close returns the first
// one.
type Writer struct {
	dst  io.Writer
	sect bytes.Buffer
	name string
	open bool
	err  error
}

// NewWriter starts a checkpoint stream on dst by writing the magic and
// format version.
func NewWriter(dst io.Writer) *Writer {
	w := &Writer{dst: dst}
	var hdr [12]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	if _, err := dst.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("checkpoint: write header: %w", err)
	}
	return w
}

// Section flushes any open section and begins a new one named name.
func (w *Writer) Section(name string) {
	if w.err != nil {
		return
	}
	if len(name) == 0 || len(name) > maxName {
		w.err = fmt.Errorf("checkpoint: invalid section name %q", name)
		return
	}
	w.flush()
	w.name = name
	w.open = true
	w.sect.Reset()
}

// flush writes the buffered section with its framing and checksum.
func (w *Writer) flush() {
	if w.err != nil || !w.open {
		return
	}
	payload := w.sect.Bytes()
	var pre [4]byte
	binary.LittleEndian.PutUint32(pre[:], uint32(len(w.name)))
	frame := make([]byte, 0, 4+len(w.name)+8+4)
	frame = append(frame, pre[:]...)
	frame = append(frame, w.name...)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(len(payload)))
	if _, err := w.dst.Write(frame); err != nil {
		w.err = fmt.Errorf("checkpoint: write section %q: %w", w.name, err)
		return
	}
	if _, err := w.dst.Write(payload); err != nil {
		w.err = fmt.Errorf("checkpoint: write section %q: %w", w.name, err)
		return
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := w.dst.Write(crc[:]); err != nil {
		w.err = fmt.Errorf("checkpoint: write section %q: %w", w.name, err)
		return
	}
	w.open = false
}

// Close flushes the last section and writes the end marker. It does not
// close the underlying writer.
func (w *Writer) Close() error {
	w.flush()
	if w.err != nil {
		return w.err
	}
	var end [4]byte
	binary.LittleEndian.PutUint32(end[:], endMarker)
	if _, err := w.dst.Write(end[:]); err != nil {
		w.err = fmt.Errorf("checkpoint: write end marker: %w", err)
	}
	return w.err
}

// Err returns the first error the writer hit, if any.
func (w *Writer) Err() error { return w.err }

// Fail latches an encoding error raised by a state Encode method (e.g. an
// impossible value it refuses to serialize).
func (w *Writer) Fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("checkpoint: "+format, args...)
	}
}

// U64 appends an unsigned 64-bit value.
func (w *Writer) U64(v uint64) {
	if w.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.sect.Write(b[:])
}

// I64 appends a signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int (as 64 bits, so the encoding is platform-independent).
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if w.err != nil {
		return
	}
	b := byte(0)
	if v {
		b = 1
	}
	w.sect.WriteByte(b)
}

// Bytes appends a count-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.count(len(b))
	if w.err != nil {
		return
	}
	w.sect.Write(b)
}

// count appends a slice element count.
func (w *Writer) count(n int) {
	if w.err != nil {
		return
	}
	if n < 0 || uint64(n) > math.MaxUint32 {
		w.err = fmt.Errorf("checkpoint: element count %d out of range", n)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(n))
	w.sect.Write(b[:])
}

// F64s appends a count-prefixed float64 slice.
func (w *Writer) F64s(xs []float64) {
	w.count(len(xs))
	for _, x := range xs {
		w.F64(x)
	}
}

// Ints appends a count-prefixed int slice (64 bits per element).
func (w *Writer) Ints(xs []int) {
	w.count(len(xs))
	for _, x := range xs {
		w.Int(x)
	}
}

// Bools appends a count-prefixed boolean slice (one byte per element).
func (w *Writer) Bools(xs []bool) {
	w.count(len(xs))
	for _, x := range xs {
		w.Bool(x)
	}
}

// Reader decodes a checkpoint stream written by Writer. Create one with
// NewReader (which validates the magic and version), advance with Section
// and read values with the primitive getters; every structural violation —
// wrong section name, checksum mismatch, reads past the section end,
// leftover bytes — latches an error retrievable with Err.
type Reader struct {
	src  io.Reader
	sect []byte
	name string
	pos  int
	err  error
}

// NewReader opens a checkpoint stream, validating the magic and format
// version with precise errors.
func NewReader(src io.Reader) (*Reader, error) {
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
	return &Reader{src: src}, nil
}

// Section advances to the next section, which must be named name. It errors
// if the previous section has undecoded bytes left — a mismatch between the
// encoder and decoder is corruption, not something to skip silently.
func (r *Reader) Section(name string) error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.sect) {
		r.err = fmt.Errorf("%w: section %q has %d undecoded bytes", ErrCorrupt, r.name, len(r.sect)-r.pos)
		return r.err
	}
	var pre [4]byte
	if _, err := io.ReadFull(r.src, pre[:]); err != nil {
		r.err = fmt.Errorf("%w: truncated before section %q: %v", ErrCorrupt, name, err)
		return r.err
	}
	nameLen := binary.LittleEndian.Uint32(pre[:])
	if nameLen == endMarker {
		r.err = fmt.Errorf("%w: stream ended before section %q", ErrCorrupt, name)
		return r.err
	}
	if nameLen == 0 || nameLen > maxName {
		r.err = fmt.Errorf("%w: section name length %d out of range", ErrCorrupt, nameLen)
		return r.err
	}
	buf := make([]byte, nameLen+8)
	if _, err := io.ReadFull(r.src, buf); err != nil {
		r.err = fmt.Errorf("%w: truncated section header: %v", ErrCorrupt, err)
		return r.err
	}
	got := string(buf[:nameLen])
	if got != name {
		r.err = fmt.Errorf("%w: section %q where %q was expected", ErrCorrupt, got, name)
		return r.err
	}
	payloadLen := binary.LittleEndian.Uint64(buf[nameLen:])
	// CopyN grows the buffer as data actually arrives, so a corrupted huge
	// length fails on truncation instead of attempting one giant allocation.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, r.src, int64(payloadLen)); err != nil || payloadLen > math.MaxInt64 {
		r.err = fmt.Errorf("%w: truncated section %q payload: %v", ErrCorrupt, name, err)
		return r.err
	}
	var crc [4]byte
	if _, err := io.ReadFull(r.src, crc[:]); err != nil {
		r.err = fmt.Errorf("%w: truncated section %q checksum: %v", ErrCorrupt, name, err)
		return r.err
	}
	if want, gotCRC := binary.LittleEndian.Uint32(crc[:]), crc32.ChecksumIEEE(payload.Bytes()); want != gotCRC {
		r.err = fmt.Errorf("%w: section %q checksum mismatch", ErrCorrupt, name)
		return r.err
	}
	r.sect = payload.Bytes()
	r.name = name
	r.pos = 0
	return nil
}

// Close consumes the end marker, erroring if sections remain or the last
// section has undecoded bytes. It does not close the underlying reader.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.sect) {
		r.err = fmt.Errorf("%w: section %q has %d undecoded bytes", ErrCorrupt, r.name, len(r.sect)-r.pos)
		return r.err
	}
	var pre [4]byte
	if _, err := io.ReadFull(r.src, pre[:]); err != nil {
		r.err = fmt.Errorf("%w: truncated before end marker: %v", ErrCorrupt, err)
		return r.err
	}
	if binary.LittleEndian.Uint32(pre[:]) != endMarker {
		r.err = fmt.Errorf("%w: trailing sections after the last expected one", ErrCorrupt)
		return r.err
	}
	return nil
}

// Err returns the first error the reader hit, if any.
func (r *Reader) Err() error { return r.err }

// Fail latches a semantic decode error raised by a state Decode method
// (e.g. a count that does not match the receiver's dimensions).
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("checkpoint: section %q: "+format, append([]any{r.name}, args...)...)
	}
}

// take returns the next n payload bytes, or latches a corruption error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.sect)-r.pos {
		r.err = fmt.Errorf("%w: section %q: read past section end", ErrCorrupt, r.name)
		return nil
	}
	b := r.sect[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U64 reads an unsigned 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a boolean byte; any value other than 0 or 1 is corruption.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		r.err = fmt.Errorf("%w: section %q: invalid boolean byte %d", ErrCorrupt, r.name, b[0])
		return false
	}
}

// Bytes reads a count-prefixed byte slice (a copy of the payload bytes).
func (r *Reader) Bytes() []byte {
	n := r.count(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// count reads a slice element count and verifies that count*elemSize bytes
// actually remain in the section, so a corrupted count cannot trigger a
// huge allocation or a partial decode.
func (r *Reader) count(elemSize int) int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n*elemSize > len(r.sect)-r.pos {
		r.err = fmt.Errorf("%w: section %q: element count %d exceeds section size", ErrCorrupt, r.name, n)
		return 0
	}
	return n
}

// F64s reads a count-prefixed float64 slice into a new allocation.
func (r *Reader) F64s() []float64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.F64()
	}
	return xs
}

// FillF64s decodes a float64 slice into dst, which must have exactly the
// encoded length — state decoders use it to restore in place, preserving
// every alias into the destination array.
func (r *Reader) FillF64s(dst []float64) {
	n := r.count(8)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.Fail("expected %d float64 elements, got %d", len(dst), n)
		return
	}
	for i := range dst {
		dst[i] = r.F64()
	}
}

// Ints reads a count-prefixed int slice into a new allocation.
func (r *Reader) Ints() []int {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = r.Int()
	}
	return xs
}

// FillBools decodes a boolean slice into dst, length-checked like FillF64s.
func (r *Reader) FillBools(dst []bool) {
	n := r.count(1)
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.Fail("expected %d boolean elements, got %d", len(dst), n)
		return
	}
	for i := range dst {
		dst[i] = r.Bool()
	}
}
