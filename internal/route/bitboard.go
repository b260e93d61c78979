package route

import "math/bits"

// Bitboard primitives of the escape sweep (lineexp.go expand). A line
// is one row or column of a bitboard: a []uint64 whose bit p (word
// p>>6, bit p&63) stands for the cell at plane-local position p along
// the line. The scans take three lines and search their union, so the
// sweep asks "stop, already swept or target?" once per 64 cells.

// scanUp returns the lowest position p in [from, cut) whose bit is set
// in a, b or c, or cut when there is none.
func scanUp(a, b, c []uint64, from, cut int) int {
	if from >= cut {
		return cut
	}
	wi := from >> 6
	if m := (a[wi] | b[wi] | c[wi]) >> (uint(from) & 63); m != 0 {
		return min(from+bits.TrailingZeros64(m), cut)
	}
	for last := (cut - 1) >> 6; wi < last; {
		wi++
		if m := a[wi] | b[wi] | c[wi]; m != 0 {
			return min(wi<<6+bits.TrailingZeros64(m), cut)
		}
	}
	return cut
}

// scanDown returns the highest position p in (cut, from] whose bit is
// set in a, b or c, or cut when there is none. cut may be -1.
func scanDown(a, b, c []uint64, from, cut int) int {
	if from <= cut {
		return cut
	}
	wi := from >> 6
	if m := (a[wi] | b[wi] | c[wi]) << (63 - uint(from)&63); m != 0 {
		return max(from-bits.LeadingZeros64(m), cut)
	}
	for first := (cut + 1) >> 6; wi > first; {
		wi--
		if m := a[wi] | b[wi] | c[wi]; m != 0 {
			return max(wi<<6+63-bits.LeadingZeros64(m), cut)
		}
	}
	return cut
}

// setRange sets the bits of positions [lo, hi).
func setRange(line []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	lm := ^uint64(0) << (uint(lo) & 63)
	hm := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		line[lw] |= lm & hm
		return
	}
	line[lw] |= lm
	for k := lw + 1; k < hw; k++ {
		line[k] = ^uint64(0)
	}
	line[hw] |= hm
}

// testBit reports whether position p is set.
func testBit(line []uint64, p int) bool {
	return line[p>>6]>>(uint(p)&63)&1 != 0
}

// setBit sets position p.
func setBit(line []uint64, p int) {
	line[p>>6] |= 1 << (uint(p) & 63)
}
