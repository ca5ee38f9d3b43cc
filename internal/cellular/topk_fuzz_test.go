package cellular

import (
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

// distinctEcIo reports whether the cells the selection ranks — the
// in-service ones, or all of them when none is — have pairwise distinct
// Ec/Io, the condition under which a frame-coherent call must equal a
// fresh one.
func distinctEcIo(cells []int32, gains []float64, down []bool) bool {
	pilotFraction, txPower := float64(windowPilotFraction), float64(windowTxPower)
	total := float64(windowNoise)
	for _, g := range gains {
		total += txPower * g
	}
	scale := pilotFraction * txPower / total
	seen := make(map[float64]bool, len(gains))
	up := 0
	for i := range gains {
		if down == nil || !down[cells[i]] {
			up++
		}
	}
	for i, g := range gains {
		if up > 0 && down != nil && down[cells[i]] {
			continue
		}
		v := scale * g
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
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
// subnormals, a down mask (all-down included), a per-slot drift and a
// second frame's mask. It checks that:
//   - both kernels, called fresh, equal the reference field for field;
//   - a frame-coherent linear call on the drifted gains equals the fresh
//     selection whenever the ranked Ec/Io values are distinct;
//   - with every cell down, both kernels return the unfiltered selection.
func FuzzPilotTopK(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 3, 10, 3, 200, 2, 1, 2, 1, 0, 0, 1, 5})
	f.Add([]byte{23, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 3, 8, 3, 9, 3, 10, 0x55, 0xaa, 0xff, 9, 8, 7})
	f.Add([]byte{63, 2, 0, 2, 0, 2, 1, 1, 1, 0, 0, 3, 255, 3, 128, 0x0f, 0xf0, 0, 0, 0, 1, 2, 3, 4})
	f.Add([]byte{8, 3, 40, 3, 80, 3, 120, 3, 160, 3, 200, 3, 240, 3, 20, 3, 60, 3, 100, 0xff, 0xff})
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

		// One frame of drift, possibly under a different mask (a cell going
		// down or recovering), through the coherent path.
		drifted := append([]float64(nil), gains...)
		for i := range drifted {
			if b := next(); b%2 == 1 {
				drifted[i] *= 1 + (float64(b)-128)/512
			}
		}
		down2 := down
		if next()%4 == 0 {
			down2 = nil
		}
		if distinctEcIo(cells, drifted, down2) {
			got := PilotSetCellsLinearInto(lin, cells, drifted, down2, windowPilotFraction, windowTxPower, windowNoise)
			sameBits(t, "coherent vs fresh", got, referencePilots(cells, drifted, down2, false))
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
