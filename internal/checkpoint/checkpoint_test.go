package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	. "jabasd/internal/checkpoint"
	"jabasd/internal/rng"
)

// sample holds one value of every kind the codec carries; persist lists
// them once over a two-section stream.
type sample struct {
	u       uint64
	i       int64
	n       int
	pi, inf float64
	nan     float64
	yes, no bool
	raw     []byte
	fs      []float64
	is      []int
	bs      [3]bool
}

func (s *sample) persist(c *Codec) error {
	c.Section("alpha")
	c.U64(&s.u)
	c.I64(&s.i)
	c.Int(&s.n)
	c.F64(&s.pi)
	c.F64(&s.inf)
	c.F64(&s.nan)
	c.Bool(&s.yes)
	c.Bool(&s.no)
	c.Bytes(&s.raw)
	c.Section("beta")
	c.F64s(&s.fs)
	c.Ints(&s.is)
	c.FillBools(s.bs[:])
	return c.Close()
}

func wantSample() sample {
	return sample{
		u: math.MaxUint64, i: -42, n: -7,
		pi: math.Pi, inf: math.Inf(-1), nan: math.NaN(),
		yes: true, no: false,
		raw: []byte{0, 1, 2, 0xff},
		fs:  []float64{0x1p-1074, math.Copysign(0, -1), 2.5},
		is:  []int{-1, 0, 1 << 40},
		bs:  [3]bool{true, false, true},
	}
}

// encodeSample writes a two-section stream exercising every value method.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := wantSample()
	if err := s.persist(NewWriter(&buf)); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func decodeSample(data []byte) (sample, error) {
	var s sample
	c, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return s, err
	}
	return s, s.persist(c)
}

func TestRoundTripAllPrimitives(t *testing.T) {
	got, err := decodeSample(encodeSample(t))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := wantSample()
	if got.u != want.u || got.i != want.i || got.n != want.n {
		t.Errorf("integers = %d, %d, %d", got.u, got.i, got.n)
	}
	if got.pi != math.Pi || !math.IsInf(got.inf, -1) {
		t.Errorf("F64 = %v, %v", got.pi, got.inf)
	}
	if bits := math.Float64bits(got.nan); bits != math.Float64bits(math.NaN()) {
		t.Errorf("NaN bits = %#x", bits)
	}
	if !got.yes || got.no {
		t.Error("Bool round-trip failed")
	}
	if !bytes.Equal(got.raw, want.raw) {
		t.Errorf("Bytes = %v", got.raw)
	}
	fs := got.fs
	if len(fs) != 3 || fs[0] != 0x1p-1074 || math.Float64bits(fs[1]) != math.Float64bits(math.Copysign(0, -1)) || fs[2] != 2.5 {
		t.Errorf("F64s = %v (negative-zero bits %#x)", fs, math.Float64bits(fs[1]))
	}
	if !slices.Equal(got.is, want.is) {
		t.Errorf("Ints = %v", got.is)
	}
	if got.bs != want.bs {
		t.Errorf("FillBools = %v", got.bs)
	}
}

// TestWriterStoresNothing: writing reads every field and changes none.
func TestWriterStoresNothing(t *testing.T) {
	s := wantSample()
	if err := s.persist(NewWriter(io.Discard)); err != nil {
		t.Fatal(err)
	}
	want := wantSample()
	s.nan, want.nan = 0, 0 // NaN != NaN
	if !reflect.DeepEqual(s, want) {
		t.Errorf("writing changed the state:\n got %+v\nwant %+v", s, want)
	}
}

// TestVersionBumpRefused: a stream from a newer build is refused with an
// error that names its version.
func TestVersionBumpRefused(t *testing.T) {
	data := encodeSample(t)
	bumped := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bumped[8:], Version+1)
	_, err := NewReader(bytes.NewReader(bumped))
	if err == nil {
		t.Fatal("bumped version accepted")
	}
	if want := fmt.Sprintf("version %d ", Version+1); !strings.Contains(err.Error(), want) {
		t.Errorf("version error %q does not name version %d", err, Version+1)
	}
}

// TestOlderVersionsRefused: a Reader opens only the format version this
// build writes. Every older version is refused with an error that names
// it; a checkpoint is a recovery point for a run of this build, not an
// archive.
func TestOlderVersionsRefused(t *testing.T) {
	data := encodeSample(t)
	for v := uint32(0); v < Version; v++ {
		old := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(old[8:], v)
		_, err := NewReader(bytes.NewReader(old))
		if err == nil {
			t.Fatalf("version %d accepted", v)
		}
		if want := fmt.Sprintf("version %d ", v); !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: error %q does not name it", v, err)
		}
	}
}

func TestBadMagicRefused(t *testing.T) {
	data := encodeSample(t)
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

// TestEveryTruncationErrors decodes every proper prefix of a valid stream:
// each must produce an error, never a panic or a silent success.
func TestEveryTruncationErrors(t *testing.T) {
	data := encodeSample(t)
	for n := 0; n < len(data); n++ {
		if _, err := decodeSample(data[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(data))
		}
	}
	if _, err := decodeSample(data); err != nil {
		t.Fatalf("full stream failed: %v", err)
	}
}

// TestEveryByteFlipErrors flips each byte of a valid stream in turn (past
// the version field, which has its own test); CRC framing must catch every
// single-byte payload corruption and the frame fields must fail structurally.
func TestEveryByteFlipErrors(t *testing.T) {
	data := encodeSample(t)
	for i := 12; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		if _, err := decodeSample(mut); err == nil {
			t.Fatalf("byte flip at offset %d decoded without error", i)
		}
	}
}

// TestRandomCorruptionNeverPanics hammers the decoder with random
// mutations — flips, truncations, insertions — asserting it always returns
// instead of panicking.
func TestRandomCorruptionNeverPanics(t *testing.T) {
	data := encodeSample(t)
	src := rng.New(99)
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), data...)
		switch src.Uint64() % 3 {
		case 0: // random flips
			for k := uint64(0); k <= src.Uint64()%4; k++ {
				mut[src.Uint64()%uint64(len(mut))] ^= byte(src.Uint64())
			}
		case 1: // truncate
			mut = mut[:src.Uint64()%uint64(len(mut))]
		case 2: // duplicate a chunk in the middle
			at := int(src.Uint64() % uint64(len(mut)))
			mut = append(mut[:at:at], append([]byte{byte(src.Uint64()), 0xEE}, mut[at:]...)...)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("decoder panicked on corrupted input: %v", p)
				}
			}()
			decodeSample(mut)
		}()
	}
}

func TestSectionNameMismatch(t *testing.T) {
	data := encodeSample(t)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("gamma"); err == nil || !strings.Contains(err.Error(), `"alpha"`) {
		t.Fatalf("name mismatch error = %v", err)
	}
}

// oneSection writes a stream with one section "s" filled by fill and opens
// it for reading, positioned inside that section.
func oneSection(t *testing.T, fill func(c *Codec)) *Codec {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("s")
	fill(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Section("s"); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestUndecodedBytesDetected(t *testing.T) {
	one, two := uint64(1), uint64(2)
	r := oneSection(t, func(c *Codec) { c.U64(&one); c.U64(&two) })
	var v uint64
	r.U64(&v) // leave one value unread
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "undecoded") {
		t.Fatalf("undecoded bytes not detected: %v", err)
	}
}

func TestFillLengthMismatch(t *testing.T) {
	xs := []float64{1, 2, 3}
	r := oneSection(t, func(c *Codec) { c.F64s(&xs) })
	r.FillF64s(make([]float64, 2))
	if r.Err() == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestReadPastSectionEnd(t *testing.T) {
	v := uint64(7)
	r := oneSection(t, func(c *Codec) { c.U64(&v) })
	r.U64(&v)
	r.U64(&v) // past the end
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("read past end: err = %v", r.Err())
	}
	if v != 7 {
		t.Errorf("failed read stored %d", v)
	}
}
