package linalg

import (
	"math"

	"osprey/internal/parallel"
)

// Blocked Cholesky: the right-looking, cache-tiled factorization behind
// NewCholesky for matrices at or above cholBlockedMin. The matrix is
// processed in cholTile-wide column panels; each step factors the diagonal
// tile, forward-substitutes the panel rows below it, and then subtracts the
// panel's outer product from the trailing submatrix tile by tile across the
// worker pool.
//
// Determinism: the blocked path fixes its own summation order — panel
// contributions in ascending column-panel order, and within each panel a
// 4-lane strided partial-sum dot (see dot4) whose lanes combine in one
// fixed tree — and tiles are disjoint index ranges written by exactly one
// ForChunk iteration (slot-write contract). The factor is therefore
// bit-identical at any worker count. It is NOT bit-identical to the scalar
// path (the lanes reassociate the sums to break the one-accumulator
// dependency chain that latency-binds the scalar loop); the crossover in
// NewCholesky depends only on n, so any given problem size always takes
// one path.
const (
	// cholTile is the panel/tile width. 64 columns of float64 is 512 bytes
	// per row strip — two tiles of interacting rows fit comfortably in L1
	// while the panel strip stays resident across the trailing update.
	cholTile = 64
	// cholBlockedMin is the size-based crossover: below it the scalar
	// factorization wins (no pair-list or goroutine overhead), above it the
	// tiled traversal's locality and lane-parallel dots dominate. The
	// crossover is a pure function of n, so a given problem size always
	// takes the same path and stays reproducible.
	cholBlockedMin = 128
)

// factorScalar is the factorization for small matrices, writing the
// factor of a + shift·I into l (see (*Cholesky).factor). Every entry is
// its own ascending-k subtraction chain, as in the textbook loop, but the
// rows below the diagonal are processed four at a time: the four chains
// are independent, so their subtractions overlap instead of each waiting
// out the previous one's add latency, and each lj[k] is loaded once for
// four rows. No sum is reordered, so the factor is bit-identical to the
// one-row-at-a-time loop.
func factorScalar(l, a *Dense, shift float64) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		lj := l.Row(j)
		clear(lj[j+1:])
		ljk := lj[:j]
		d := a.At(j, j) + shift
		for _, v := range ljk {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		dj := math.Sqrt(d)
		lj[j] = dj
		i := j + 1
		for ; i+4 <= n; i += 4 {
			l0, l1, l2, l3 := l.Row(i), l.Row(i+1), l.Row(i+2), l.Row(i+3)
			r0, r1, r2, r3 := l0[:j], l1[:j], l2[:j], l3[:j]
			s0, s1, s2, s3 := a.At(i, j), a.At(i+1, j), a.At(i+2, j), a.At(i+3, j)
			for k, v := range ljk {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			l0[j], l1[j], l2[j], l3[j] = s0/dj, s1/dj, s2/dj, s3/dj
		}
		for ; i < n; i++ {
			li := l.Row(i)
			ri := li[:j]
			s := a.At(i, j)
			for k, v := range ljk {
				s -= ri[k] * v
			}
			li[j] = s / dj
		}
	}
	return nil
}

// dot4 returns Σ a[k]·b[k] over [0, n) with four independent accumulator
// lanes (k ≡ 0..3 mod 4) combined as (s0+s1)+(s2+s3). The lanes break the
// single-accumulator add-latency chain that bounds a sequential dot; the
// order is a pure function of n, so results are reproducible everywhere.
func dot4(a, b []float64, n int) float64 {
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= n; k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	for ; k < n; k++ {
		s0 += a[k] * b[k]
	}
	return (s0 + s1) + (s2 + s3)
}

// factorDiagTile factors columns [kb, ke) of the diagonal tile in place,
// assuming all contributions from columns < kb have already been subtracted
// by earlier trailing updates.
func factorDiagTile(l *Dense, kb, ke int) error {
	for j := kb; j < ke; j++ {
		lj := l.Row(j)
		ljp := lj[kb:j]
		d := lj[j] - dot4(ljp, ljp, j-kb)
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		dj := math.Sqrt(d)
		lj[j] = dj
		for i := j + 1; i < ke; i++ {
			li := l.Row(i)
			li[j] = (li[j] - dot4(li[kb:j], ljp, j-kb)) / dj
		}
	}
	return nil
}

// factorBlocked writes the factor of a + shift·I into l with the tiled
// right-looking algorithm (see (*Cholesky).factor).
func factorBlocked(l, a *Dense, shift float64) error {
	n := a.Rows
	for i := 0; i < n; i++ {
		li := l.Row(i)
		copy(li[:i+1], a.Row(i)[:i+1])
		clear(li[i+1:])
		li[i] += shift
	}
	// Reused trailing-tile pair list: {rowTileStart, colTileStart}.
	var pairs [][2]int
	for kb := 0; kb < n; kb += cholTile {
		ke := min(kb+cholTile, n)
		if err := factorDiagTile(l, kb, ke); err != nil {
			return err
		}
		// Panel: forward-substitute every row below the diagonal tile
		// against it. Each row is owned by one iteration.
		parallel.ForChunk(n-ke, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				i := ke + r
				li := l.Row(i)
				for j := kb; j < ke; j++ {
					lj := l.Row(j)
					li[j] = (li[j] - dot4(li[kb:j], lj[kb:j], j-kb)) / lj[j]
				}
			}
		})
		// Trailing update: subtract the panel's outer product from every
		// remaining lower-triangle tile. Tiles are disjoint slots.
		pairs = pairs[:0]
		for jb := ke; jb < n; jb += cholTile {
			for ib := jb; ib < n; ib += cholTile {
				pairs = append(pairs, [2]int{ib, jb})
			}
		}
		parallel.ForChunk(len(pairs), func(lo, hi int) {
			for p := lo; p < hi; p++ {
				ib, jb := pairs[p][0], pairs[p][1]
				ie := min(ib+cholTile, n)
				je := min(jb+cholTile, n)
				w := ke - kb
				for i := ib; i < ie; i++ {
					li := l.Row(i)
					lip := li[kb:ke]
					jmax := je
					if i+1 < jmax {
						jmax = i + 1 // diagonal tile: lower triangle only
					}
					for j := jb; j < jmax; j++ {
						li[j] -= dot4(lip, l.Row(j)[kb:ke], w)
					}
				}
			}
		})
	}
	return nil
}
