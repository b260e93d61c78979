package route

import "netart/internal/geom"

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
//     engine draws its wavefront state from. The covered bitmap is
//     epoch-stamped so "clearing" it between searches is one counter
//     increment; actives are bump-allocated from slabs; the per-expand
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

// coveredStampBits is the number of low bits of a covered word holding
// the per-cell search state — four direction bits plus the target bit;
// the rest is the search-epoch stamp.
const coveredStampBits = 5

// targetBit marks a cell as a member of the search's precomputed target
// set (lineSearch.setTargets), sharing the covered word so the hot sweep
// answers "target?" and "already swept?" with a single stamped load.
const targetBit = 1 << 4

// searchArena is the reusable scratch of the line-expansion engine. One
// arena serves one router; a search acquires it by bumping the covered
// epoch, which invalidates every mark of the previous search in O(1).
type searchArena struct {
	// covered holds, per plane point, gen<<4 | direction bits: a cell
	// stops an escape only when it was already swept in the same
	// direction within the same search epoch. Stamps from older epochs
	// read as "not covered".
	covered []uint32
	gen     uint32

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

func newSearchArena(cells int) *searchArena {
	return &searchArena{covered: make([]uint32, cells)}
}

// acquire starts a new search epoch: previous covered marks expire by
// stamp and the active slab resets. The stamp space (32-4 bits) is
// cleared for real on the rare wrap.
func (ar *searchArena) acquire() {
	ar.gen++
	if ar.gen >= 1<<(32-coveredStampBits) {
		clear(ar.covered)
		ar.gen = 1
	}
	ar.blockI, ar.cellI = 0, 0
}

// markTarget stamps idx as a target of the current epoch. Called before
// the search sweeps (setTargets), so overwriting the word loses nothing.
func (ar *searchArena) markTarget(idx int) {
	w := ar.covered[idx]
	if w>>coveredStampBits != ar.gen {
		w = ar.gen << coveredStampBits
	}
	ar.covered[idx] = w | targetBit
}

// isTarget reports whether idx was stamped by markTarget this epoch.
func (ar *searchArena) isTarget(idx int) bool {
	w := ar.covered[idx]
	return w>>coveredStampBits == ar.gen && w&targetBit != 0
}

// coveredBits returns the direction mask of the current epoch at idx.
func (ar *searchArena) coveredBits(idx int) uint8 {
	w := ar.covered[idx]
	if w>>coveredStampBits != ar.gen {
		return 0
	}
	return uint8(w) & allDirBits
}

// markCovered ors direction bits into the current epoch's mask at idx.
func (ar *searchArena) markCovered(idx int, bits uint8) {
	w := ar.covered[idx]
	if w>>coveredStampBits != ar.gen {
		w = ar.gen << coveredStampBits
	}
	ar.covered[idx] = w | uint32(bits)
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
