package cellular

import (
	"fmt"
	"math"
	"testing"
)

// referencePilots is the pilot selection the kernels replace, kept here as
// their specification: every in-service cell of the window measured with
// the kernel's arithmetic (EcIoDB only when db is set), a full stable
// insertion sort by decreasing Ec/Io, and the first min(TopPilots, n)
// entries. When every cell is down the whole window is measured instead.
func referencePilots(cells []int32, gains []float64, down []bool, db bool) []PilotMeasurement {
	// Variables, not the untyped constants: constant arithmetic would be
	// exact rather than rounded like the kernels' float64 products.
	pilotFraction, txPower := float64(windowPilotFraction), float64(windowTxPower)
	total := float64(windowNoise)
	for _, g := range gains {
		total += txPower * g
	}
	scale := pilotFraction * txPower / total
	var all []PilotMeasurement
	for pass := 0; pass < 2 && len(all) == 0; pass++ {
		for i, g := range gains {
			if pass == 0 && down != nil && down[cells[i]] {
				continue
			}
			p := PilotMeasurement{Cell: cells[i], Slot: int32(i), EcIo: scale * g}
			if db {
				p.EcIo = pilotFraction * txPower * g / total
				p.EcIoDB = 10 * math.Log10(math.Max(p.EcIo, 1e-30))
			}
			all = append(all, p)
		}
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j-1].EcIo < all[j].EcIo; j-- {
			all[j-1], all[j] = all[j], all[j-1]
		}
	}
	return all[:min(TopPilots, len(all))]
}

// sameBits fails unless got and want hold the same cells and slots in the
// same order with bit-identical EcIo and EcIoDB.
func sameBits(t *testing.T, what string, got, want []PilotMeasurement) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pilots, want %d\ngot  %+v\nwant %+v", what, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Cell != w.Cell || g.Slot != w.Slot ||
			math.Float64bits(g.EcIo) != math.Float64bits(w.EcIo) ||
			math.Float64bits(g.EcIoDB) != math.Float64bits(w.EcIoDB) {
			t.Fatalf("%s: pilot %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// fuzzGain decodes one gain from a class byte and a value byte: exact zeros,
// subnormals, a coarse ladder of eight values (so exact ties are common) and
// a fine log-uniform spread over the simulator's -150..-80 dB range.
func fuzzGain(class, b byte) float64 {
	switch class % 4 {
	case 0:
		return 0
	case 1:
		return math.Float64frombits(uint64(b) + 1) // subnormal
	case 2:
		return math.Pow(10, -8-float64(b%8))
	default:
		return math.Pow(10, -15+7*float64(b)/255)
	}
}

// FuzzPilotTopK holds both pilot kernels to referencePilots. The input
// decodes to a window width (1..64), per-slot gains with ties, zeros and
// subnormals, a down mask (all-down included), and then a chain of frames,
// each with a per-slot drift (a small relative step, or a jump to a freshly
// decoded gain, so cells enter and leave the top entries) and a mask change
// (every cell back in service, one cell going down or recovering, or none).
// It checks that:
//   - both kernels, called fresh, equal the reference field for field;
//   - every frame of the chain, run through the frame-coherent linear path
//     on the previous frame's entries, equals the reference too, ties
//     included;
//   - with every cell down, both kernels return the unfiltered selection.
func FuzzPilotTopK(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 3, 10, 3, 200, 2, 1, 2, 1, 0, 0, 1, 5})
	f.Add([]byte{23, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 3, 8, 3, 9, 3, 10, 0x55, 0xaa, 0xff, 9, 8, 7})
	f.Add([]byte{63, 2, 0, 2, 0, 2, 1, 1, 1, 0, 0, 3, 255, 3, 128, 0x0f, 0xf0, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{8, 3, 40, 3, 80, 3, 120, 3, 160, 3, 200, 3, 240, 3, 20, 3, 60, 3, 100, 0xff, 0xff})
	// Cells entering: a 12-cell window on an even ladder (slot i at value
	// byte 20i), every cell in service, so slots 4-11 are kept. In the
	// first frame slot 0 jumps to the top; in the second slot 1 jumps to
	// tie the weakest kept entry (slot 5) from a lower slot; in the third
	// slot 2 jumps into the top entries and slot 11, a kept one, goes down.
	f.Add(append(append(append(append([]byte{11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		3, 0, 3, 20, 3, 40, 3, 60, 3, 80, 3, 100, 3, 120, 3, 140, 3, 160, 3, 180, 3, 200, 3, 220, 0),
		2, 3, 255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3),
		0, 2, 3, 100, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3),
		0, 0, 2, 3, 250, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 11))
	// A 37-cell map-wide window of distinct gains with every third cell
	// down; each frame every slot drifts by up to 25% and one in-service
	// slot from the bottom jumps to the top.
	metro := []byte{36}
	for i := 0; i < 37; i++ {
		metro = append(metro, 0)
	}
	for i := 0; i < 37; i++ {
		metro = append(metro, 3, byte(i*97))
	}
	metro = append(metro, 1)
	for i := 0; i < 37; i++ {
		metro = append(metro, byte(i))
	}
	for frame, jump := range []int{8, 16, 32, 11} {
		for i := 0; i < 37; i++ {
			if i == jump {
				metro = append(metro, 2, 3, byte(250-frame))
			} else {
				metro = append(metro, byte(1+(i*53+frame*29)%254)|1)
			}
		}
		metro = append(metro, 3)
	}
	f.Add(metro)
	f.Fuzz(func(t *testing.T, data []byte) {
		at := 0
		next := func() byte {
			if at >= len(data) {
				at++
				return byte(at * 37)
			}
			at++
			return data[at-1]
		}
		n := int(next())%64 + 1
		// Ascending global cells with gaps, so the down mask is indexed by
		// cell, not by slot.
		cells := make([]int32, n)
		for i := range cells {
			cells[i] = int32(3*i + int(next()%3))
		}
		maxCell := int(cells[n-1]) + 1
		gains := make([]float64, n)
		for i := range gains {
			gains[i] = fuzzGain(next(), next())
		}
		var down []bool
		switch mode := next() % 4; mode {
		case 1, 2:
			down = make([]bool, maxCell)
			for _, c := range cells {
				down[c] = next()%3 == 0
			}
		case 3:
			down = make([]bool, maxCell)
			for i := range down {
				down[i] = true
			}
		}

		exact := PilotSetCellsInto(nil, cells, gains, down, windowPilotFraction, windowTxPower, windowNoise)
		sameBits(t, "PilotSetCellsInto", exact, referencePilots(cells, gains, down, true))
		checkSlots(t, "PilotSetCellsInto", exact, cells)
		lin := PilotSetCellsLinearInto(nil, cells, gains, down, windowPilotFraction, windowTxPower, windowNoise)
		sameBits(t, "PilotSetCellsLinearInto", lin, referencePilots(cells, gains, down, false))
		checkSlots(t, "PilotSetCellsLinearInto", lin, cells)

		// Frames of drift through the coherent path, each on the entries
		// the previous frame left in lin.
		drifted := append([]float64(nil), gains...)
		mask := down
		for frame := 0; frame < 4; frame++ {
			for i := range drifted {
				switch b := next(); b % 4 {
				case 1, 3:
					drifted[i] *= 1 + (float64(b)-128)/512
				case 2:
					drifted[i] = fuzzGain(next(), next())
				}
			}
			switch next() % 4 {
			case 0:
				mask = nil
			case 1:
				m := make([]bool, maxCell)
				copy(m, mask)
				c := cells[int(next())%n]
				m[c] = !m[c]
				mask = m
			}
			lin = PilotSetCellsLinearInto(lin, cells, drifted, mask, windowPilotFraction, windowTxPower, windowNoise)
			sameBits(t, fmt.Sprintf("coherent frame %d", frame), lin, referencePilots(cells, drifted, mask, false))
		}
		allDown := make([]bool, maxCell)
		for i := range allDown {
			allDown[i] = true
		}
		sameBits(t, "all-down PilotSetCellsInto", PilotSetCellsInto(nil, cells, gains, allDown, windowPilotFraction, windowTxPower, windowNoise),
			PilotSetCellsInto(nil, cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise))
		sameBits(t, "all-down PilotSetCellsLinearInto", PilotSetCellsLinearInto(nil, cells, gains, allDown, windowPilotFraction, windowTxPower, windowNoise),
			PilotSetCellsLinearInto(nil, cells, gains, nil, windowPilotFraction, windowTxPower, windowNoise))
	})
}
