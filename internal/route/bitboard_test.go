package route

import (
	"fmt"
	"testing"
)

// TestBitboardScansMatchNaive checks scanUp, scanDown and setRange
// against per-bit loops over lines whose lengths sit on and around word
// edges, with set bits on both sides of each edge and cuts from -1 to
// the line's length.
func TestBitboardScansMatchNaive(t *testing.T) {
	naiveUp := func(bits []bool, from, cut int) int {
		for p := from; p < cut; p++ {
			if bits[p] {
				return p
			}
		}
		return cut
	}
	naiveDown := func(bits []bool, from, cut int) int {
		for p := from; p > cut; p-- {
			if bits[p] {
				return p
			}
		}
		return cut
	}
	lineOf := func(bits []bool) []uint64 {
		line := make([]uint64, (len(bits)+63)/64)
		for p, b := range bits {
			if b {
				setBit(line, p)
			}
		}
		return line
	}

	for _, n := range []int{1, 63, 64, 65, 130} {
		var marks [][]int // set positions, spread over three lines
		marks = append(marks, nil)
		for _, p := range []int{0, 63, 64, 127} {
			if p < n {
				marks = append(marks, []int{p})
			}
		}
		marks = append(marks, []int{n - 1}, []int{n / 2, n - 1})
		for _, set := range marks {
			all := make([]bool, n)
			parts := [3][]bool{make([]bool, n), make([]bool, n), make([]bool, n)}
			for k, p := range set {
				all[p] = true
				parts[k%3][p] = true
			}
			a, b, c := lineOf(parts[0]), lineOf(parts[1]), lineOf(parts[2])
			name := fmt.Sprintf("n%d/set%v", n, set)
			for from := 0; from < n; from++ {
				for cut := from; cut <= n; cut++ {
					if got, want := scanUp(a, b, c, from, cut), naiveUp(all, from, cut); got != want {
						t.Fatalf("%s: scanUp(from %d, cut %d) = %d, want %d", name, from, cut, got, want)
					}
				}
				for cut := -1; cut <= from; cut++ {
					if got, want := scanDown(a, b, c, from, cut), naiveDown(all, from, cut); got != want {
						t.Fatalf("%s: scanDown(from %d, cut %d) = %d, want %d", name, from, cut, got, want)
					}
				}
			}
		}

		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				line := make([]uint64, (n+63)/64)
				setRange(line, lo, hi)
				for p := 0; p < len(line)*64; p++ {
					if got, want := testBit(line, p), p >= lo && p < hi; got != want {
						t.Fatalf("n%d: setRange(%d, %d) left bit %d = %v", n, lo, hi, p, got)
					}
				}
			}
		}
	}
}
