package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	. "jabasd/internal/checkpoint"
	"jabasd/internal/rng"
)

// encodeSample writes a two-section stream exercising every primitive.
func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("alpha")
	w.U64(math.MaxUint64)
	w.I64(-42)
	w.Int(-7)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.F64(math.NaN())
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte{0, 1, 2, 0xff})
	w.Section("beta")
	w.F64s([]float64{0x1p-1074, math.Copysign(0, -1), 2.5})
	w.Ints([]int{-1, 0, 1 << 40})
	w.Bools([]bool{true, false, true})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func decodeSample(data []byte) error {
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := r.Section("alpha"); err != nil {
		return err
	}
	r.U64()
	r.I64()
	r.Int()
	r.F64()
	r.F64()
	r.F64()
	r.Bool()
	r.Bool()
	r.Bytes()
	if err := r.Section("beta"); err != nil {
		return err
	}
	r.F64s()
	r.Ints()
	var bs [3]bool
	r.FillBools(bs[:])
	if err := r.Close(); err != nil {
		return err
	}
	return r.Err()
}

func TestRoundTripAllPrimitives(t *testing.T) {
	data := encodeSample(t)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if err := r.Section("alpha"); err != nil {
		t.Fatalf("Section alpha: %v", err)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -7 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := math.Float64bits(r.F64()); got != math.Float64bits(math.NaN()) {
		t.Errorf("NaN bits = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2, 0xff}) {
		t.Errorf("Bytes = %v", got)
	}
	if err := r.Section("beta"); err != nil {
		t.Fatalf("Section beta: %v", err)
	}
	fs := r.F64s()
	if len(fs) != 3 || fs[0] != 0x1p-1074 || math.Float64bits(fs[1]) != math.Float64bits(math.Copysign(0, -1)) || fs[2] != 2.5 {
		t.Errorf("F64s = %v (negative-zero bits %#x)", fs, math.Float64bits(fs[1]))
	}
	is := r.Ints()
	if len(is) != 3 || is[0] != -1 || is[2] != 1<<40 {
		t.Errorf("Ints = %v", is)
	}
	var bs [3]bool
	r.FillBools(bs[:])
	if bs != [3]bool{true, false, true} {
		t.Errorf("FillBools = %v", bs)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
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
		if err := decodeSample(data[:n]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(data))
		}
	}
	if err := decodeSample(data); err != nil {
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
		if err := decodeSample(mut); err == nil {
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

func TestUndecodedBytesDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("s")
	w.U64(1)
	w.U64(2)
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
	r.U64() // leave one value unread
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "undecoded") {
		t.Fatalf("undecoded bytes not detected: %v", err)
	}
}

func TestFillLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("s")
	w.F64s([]float64{1, 2, 3})
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
	dst := make([]float64, 2)
	r.FillF64s(dst)
	if r.Err() == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestReadPastSectionEnd(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("s")
	w.U64(7)
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
	r.U64()
	r.U64() // past the end
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("read past end: err = %v", r.Err())
	}
}
