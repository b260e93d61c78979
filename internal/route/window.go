package route

import (
	"math"

	"netart/internal/geom"
)

// This file implements the bounded-work machinery of the routing hot
// path (DESIGN.md §5i):
//
//   - search windows: every connection search is confined to the
//     bounding box of its interesting points (source terminal, target
//     hints, the net's laid geometry) plus an adaptive margin. A failed
//     windowed attempt widens the margin and retries, ending at the
//     full plane, so windowing can never lose a routable connection —
//     it only bounds the work of the common case, where the minimum
//     bend path lives near the terminals' bounding box.
//   - searchArena: the per-router scratch arena the line-expansion
//     engine draws its wavefront state from. The covered and target
//     bitboards are cleared per search over the search's window only;
//     actives are bump-allocated from slabs; the per-expand
//     advance/crossing buffers and the wavefront slices are reused.
//     Together these drop the router's per-net allocation cost to near
//     zero (the seed allocated an O(plane) covered array per search).
//
// Windows use inclusive point semantics throughout — both Min and Max
// are valid points, exactly like Plane.Bounds (and unlike geom.Rect's
// half-open cell reading), because windows are clamped subsets of the
// plane's point grid.

// winContains reports whether p lies inside the inclusive point
// rectangle r.
func winContains(r geom.Rect, p geom.Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// winExpand grows the inclusive rect by m points on every side, clamped
// to bounds.
func winExpand(r geom.Rect, m int, bounds geom.Rect) geom.Rect {
	r.Min.X = geom.Max(r.Min.X-m, bounds.Min.X)
	r.Min.Y = geom.Max(r.Min.Y-m, bounds.Min.Y)
	r.Max.X = geom.Min(r.Max.X+m, bounds.Max.X)
	r.Max.Y = geom.Min(r.Max.Y+m, bounds.Max.Y)
	return r
}

// ptBox returns the degenerate inclusive rect holding exactly p.
func ptBox(p geom.Point) geom.Rect { return geom.Rect{Min: p, Max: p} }

// boxAdd extends the inclusive rect to cover p.
func boxAdd(r geom.Rect, p geom.Point) geom.Rect {
	r.Min.X = geom.Min(r.Min.X, p.X)
	r.Min.Y = geom.Min(r.Min.Y, p.Y)
	r.Max.X = geom.Max(r.Max.X, p.X)
	r.Max.Y = geom.Max(r.Max.Y, p.Y)
	return r
}

// manhattanToBox returns the Manhattan distance from p to the nearest
// point of the inclusive rect (0 when p is inside). It is the admissible
// remaining-length heuristic of the Lee engine's A* prune: every target
// point lies inside the rect, so no path from p can reach a target in
// fewer steps.
func manhattanToBox(p geom.Point, r geom.Rect) int {
	d := 0
	if p.X < r.Min.X {
		d += r.Min.X - p.X
	} else if p.X > r.Max.X {
		d += p.X - r.Max.X
	}
	if p.Y < r.Min.Y {
		d += r.Min.Y - p.Y
	} else if p.Y > r.Max.Y {
		d += p.Y - r.Max.Y
	}
	return d
}

// Window widening schedule: the initial margin around the terminals'
// bounding box, and the factor each retry widens it by before the final
// full-plane attempt. The margin is a pure performance knob — a windowed
// outcome is only accepted when it is provably identical to the
// unwindowed search (lineexp.go exact) and is re-run wider otherwise, so
// the windowed≡full property battery (window_test.go) holds for any
// margin; the margin merely tunes how often the ladder pays a retry.
const (
	winMargin0     = 20
	winWidenFactor = 8
)

// winArea returns the point count of the inclusive rect.
func winArea(r geom.Rect) int {
	return (r.Max.X - r.Min.X + 1) * (r.Max.Y - r.Min.Y + 1)
}

// windows returns the widening schedule for one search whose interesting
// points span bbox: the bbox plus the initial margin, then the widened
// margin, then the full plane (deduplicated when clamping collapses
// steps). A rung whose area is already most of the next rung's is
// dropped — retrying at nearly the same size costs close to a full
// duplicate sweep on failure while saving almost nothing on success.
// Any schedule ending at the full plane preserves byte-identity (the
// ladder only accepts provably exact outcomes), so pruning is purely a
// performance decision. With Options.noWindow the schedule is just the
// full plane, reproducing the seed router's behavior.
func (rt *router) windows(bbox geom.Rect) []geom.Rect {
	full := rt.plane.Bounds
	if rt.opts.noWindow {
		return []geom.Rect{full}
	}
	rungs := [...]geom.Rect{
		winExpand(bbox, winMargin0, full),
		winExpand(bbox, winMargin0*winWidenFactor, full),
		full,
	}
	out := make([]geom.Rect, 0, len(rungs))
	for i, r := range rungs {
		if i < len(rungs)-1 && winArea(r)*4 >= winArea(rungs[i+1])*3 {
			continue
		}
		out = append(out, r)
	}
	return out
}

// searchArena is the reusable scratch of the line-expansion engine. One
// arena serves one router (and so one plane); a search acquires it by
// clearing the words of its window.
//
// The search state lives in bitboards laid out like the plane's stop
// bitboards (plane-local coordinates): covered[d] marks the cells
// already swept in direction d, row-major for Left/Right and
// column-major for Up/Down, so each lies along its direction's travel
// axis; targetRow and targetCol hold the search's precomputed target
// set in both layouts.
//
// Clearing only the window is enough because no read of a search
// leaves its window: escapes stop at the window edge, and start cells
// and targets lie in the window's core box. Marks a wider earlier
// search left outside the window are therefore never read, and the
// next search whose window covers them clears them first.
type searchArena struct {
	org                geom.Point // plane Bounds.Min
	w                  int        // plane width, for index → (x, y)
	rowWords, colWords int

	covered              [4][]uint64 // indexed by geom.Dir
	targetRow, targetCol []uint64

	// rowTargetLo/Hi[y] and colTargetLo/Hi[x] are the lowest and highest
	// plane-local target position on row y and column x (Lo > Hi on a
	// line without targets): an escape has a target ahead exactly when
	// its line's extent reaches past its start in the travel direction.
	rowTargetLo, rowTargetHi []int32
	colTargetLo, colTargetHi []int32

	// advance and crossAdv/crossOff are the per-expand escape profile
	// buffers: advance[k] is how far segment cell k's escape travelled,
	// and crossAdv[crossOff[k]:crossOff[k+1]] lists the advance values
	// (in travel order) at which that escape crossed a foreign wire.
	advance  []int
	crossAdv []int
	crossOff []int

	// blocks bump-allocates actives in place-stable slabs, reused across
	// searches (all actives of a search are dead once its path is
	// reconstructed).
	blocks [][]active
	blockI int
	cellI  int

	// waves ping-pongs the two wavefront slices of run().
	waves [2][]*active
}

func newSearchArena(pl *Plane) *searchArena {
	rowBB := func() []uint64 { return make([]uint64, pl.h*pl.rowWords) }
	colBB := func() []uint64 { return make([]uint64, pl.w*pl.colWords) }
	return &searchArena{
		org: pl.Bounds.Min, w: pl.w, rowWords: pl.rowWords, colWords: pl.colWords,
		covered:     [4][]uint64{geom.Left: rowBB(), geom.Right: rowBB(), geom.Up: colBB(), geom.Down: colBB()},
		targetRow:   rowBB(),
		targetCol:   colBB(),
		rowTargetLo: make([]int32, pl.h), rowTargetHi: make([]int32, pl.h),
		colTargetLo: make([]int32, pl.w), colTargetHi: make([]int32, pl.w),
	}
}

// acquire starts a new search confined to the inclusive window win:
// it clears every word of the window in the six bitboards, empties the
// target extents of the window's rows and columns and resets the
// active slab.
func (ar *searchArena) acquire(win geom.Rect) {
	x0, x1 := win.Min.X-ar.org.X, win.Max.X-ar.org.X
	y0, y1 := win.Min.Y-ar.org.Y, win.Max.Y-ar.org.Y
	for y := y0; y <= y1; y++ {
		lo, hi := y*ar.rowWords+x0>>6, y*ar.rowWords+x1>>6+1
		clear(ar.covered[geom.Left][lo:hi])
		clear(ar.covered[geom.Right][lo:hi])
		clear(ar.targetRow[lo:hi])
		ar.rowTargetLo[y], ar.rowTargetHi[y] = math.MaxInt32, -1
	}
	for x := x0; x <= x1; x++ {
		lo, hi := x*ar.colWords+y0>>6, x*ar.colWords+y1>>6+1
		clear(ar.covered[geom.Up][lo:hi])
		clear(ar.covered[geom.Down][lo:hi])
		clear(ar.targetCol[lo:hi])
		ar.colTargetLo[x], ar.colTargetHi[x] = math.MaxInt32, -1
	}
	ar.blockI, ar.cellI = 0, 0
}

// rowLine and colLine return row y's and column x's words of a row- or
// column-major bitboard (plane-local coordinates).
func (ar *searchArena) rowLine(bb []uint64, y int) []uint64 {
	return bb[y*ar.rowWords : (y+1)*ar.rowWords]
}

func (ar *searchArena) colLine(bb []uint64, x int) []uint64 {
	return bb[x*ar.colWords : (x+1)*ar.colWords]
}

// markTarget adds plane index idx to the search's target set.
func (ar *searchArena) markTarget(idx int) {
	x, y := idx%ar.w, idx/ar.w
	setBit(ar.rowLine(ar.targetRow, y), x)
	setBit(ar.colLine(ar.targetCol, x), y)
	ar.rowTargetLo[y] = min(ar.rowTargetLo[y], int32(x))
	ar.rowTargetHi[y] = max(ar.rowTargetHi[y], int32(x))
	ar.colTargetLo[x] = min(ar.colTargetLo[x], int32(y))
	ar.colTargetHi[x] = max(ar.colTargetHi[x], int32(y))
}

// coveredIn reports whether plane-local (x, y) is set in bb, a
// direction-d covered bitboard (covered[d] or a copy of it).
func (ar *searchArena) coveredIn(bb []uint64, d geom.Dir, x, y int) bool {
	if d.Horizontal() {
		return testBit(ar.rowLine(bb, y), x)
	}
	return testBit(ar.colLine(bb, x), y)
}

// markStart marks plane index idx, a start cell, swept in every
// direction, so no escape re-enters it.
func (ar *searchArena) markStart(idx int) {
	x, y := idx%ar.w, idx/ar.w
	setBit(ar.rowLine(ar.covered[geom.Left], y), x)
	setBit(ar.rowLine(ar.covered[geom.Right], y), x)
	setBit(ar.colLine(ar.covered[geom.Up], x), y)
	setBit(ar.colLine(ar.covered[geom.Down], x), y)
}

// newActive bump-allocates an active from the slab.
func (ar *searchArena) newActive() *active {
	if ar.blockI == len(ar.blocks) {
		ar.blocks = append(ar.blocks, make([]active, 512))
	}
	b := ar.blocks[ar.blockI]
	a := &b[ar.cellI]
	ar.cellI++
	if ar.cellI == len(b) {
		ar.blockI++
		ar.cellI = 0
	}
	return a
}

// advanceBuf returns a zeroed advance buffer of n cells.
func (ar *searchArena) advanceBuf(n int) []int {
	if cap(ar.advance) < n {
		ar.advance = make([]int, n)
	}
	buf := ar.advance[:n]
	clear(buf)
	return buf
}

// crossOffBuf returns an uninitialized offset buffer of n entries.
func (ar *searchArena) crossOffBuf(n int) []int {
	if cap(ar.crossOff) < n {
		ar.crossOff = make([]int, n)
	}
	return ar.crossOff[:n]
}
