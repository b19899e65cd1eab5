package rng

import "testing"

func TestSobolDim0IsVanDerCorput(t *testing.T) {
	// Unshifted dimension 0 is the base-2 van der Corput sequence; in
	// Gray-code order the first points enumerate the same set as the
	// natural order within each power-of-two block.
	var shift [SobolMaxDim]uint32
	s := NewSobol(&shift)
	want := []float64{0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125}
	got := []float64{s.Coord(0)}
	for i := 1; i < len(want); i++ {
		s.Next()
		got = append(got, s.Coord(0))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d dim 0 = %v, want %v (sequence %v)", i, got[i], want[i], got)
		}
	}
}

func TestSobolBlocksAreBalanced(t *testing.T) {
	// Any 2^k-point prefix of an (unshifted) Sobol net puts exactly one
	// point in each dyadic interval [j/2^k, (j+1)/2^k) of every
	// dimension — the defining (0, m, s)-net property the variance
	// reduction rests on.
	const k = 6 // 64 points, the sampling.SobolBlock size
	var shift [SobolMaxDim]uint32
	s := NewSobol(&shift)
	for d := 0; d < SobolMaxDim; d++ {
		seen := make([]int, 1<<k)
		s2 := NewSobol(&shift)
		for i := 0; i < 1<<k; i++ {
			if i > 0 {
				s2.Next()
			}
			seen[int(s2.Coord(d)*(1<<k))]++
		}
		for j, n := range seen {
			if n != 1 {
				t.Fatalf("dim %d: interval %d/%d holds %d points, want 1", d, j, 1<<k, n)
			}
		}
	}
	_ = s
}

func TestSobolDigitalShiftPreservesStructure(t *testing.T) {
	// A digital shift XORs every point with the same word, so the XOR
	// difference between any two points is shift-invariant, and point 0
	// is the shift itself.
	var zero [SobolMaxDim]uint32
	var shift [SobolMaxDim]uint32
	for d := range shift {
		shift[d] = 0xdeadbeef ^ uint32(d)*0x9e3779b9
	}
	a, b := NewSobol(&zero), NewSobol(&shift)
	if got := b.Coord(0); got != float64(shift[0])*0x1p-32 {
		t.Errorf("shifted point 0 = %v, want the shift %v", got, float64(shift[0])*0x1p-32)
	}
	for i := 0; i < 100; i++ {
		a.Next()
		b.Next()
		for d := 0; d < SobolMaxDim; d++ {
			ua := uint32(a.Coord(d) * (1 << 32))
			ub := uint32(b.Coord(d) * (1 << 32))
			if ua^ub != shift[d] {
				t.Fatalf("point %d dim %d: xor difference %#x, want shift %#x", i, d, ua^ub, shift[d])
			}
		}
	}
}
