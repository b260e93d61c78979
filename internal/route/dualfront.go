package route

import (
	"slices"

	"netart/internal/geom"
)

// This file implements the dual-front initiation of §5.5.3: "The search
// for an interconnection is initiated by the algorithm in both points...
// This yields two initiated wavefronts... Alternatingly, the expansion
// procedure is applied to all active segments forming one of the
// wavefronts. The process continues until a solution is found. A
// solution is found when an active line of the other wavefront is
// reached."
//
// Compared to the single-front search it roughly halves the searched
// area for long point-to-point connections, at the cost of a joint
// bookkeeping step where the two partial paths meet. Route uses it for
// net initiation when Options.DualFront is set; tree connections keep
// the single front (their target is an area, not a point).

// cellOwner records which active segment of a front covered a cell (in
// the active's own frame), so the other front can reconstruct the
// partial path from the meeting point.
type cellOwner struct {
	a     *active
	i, j  int
	cross int // crossings accumulated along the front's path to the cell
}

// frontState is one of the two wavefronts.
type frontState struct {
	search *lineSearch
	owner  map[int]cellOwner
	wave   []*active
}

// joint is a candidate combined solution.
type joint struct {
	segs   []Segment
	bends  int
	cross  int
	length int
}

// dualSearch runs the alternating two-front expansion between two
// terminal points, confined to the inclusive window win (the caller's
// widen-and-retry ladder supplies the schedule). On success the
// combined path runs from the A start to the B start.
//
// The third result reports exactness: the outcome is provably what the
// unwindowed search would have produced. The joint construction couples
// the two fronts (a clip on either side can change the other front's
// contact set), so the rule is conservative — exact iff neither front
// was clipped at all. The full-plane rung clips nothing, terminating
// the caller's ladder.
//
// Each front owns a private arena: the two coverage maps must stay
// independent (both fronts may sweep the same cell), so the fronts
// cannot share one set of bitboards.
func dualSearch(pl *Plane, net int32, fromA geom.Point, dirsA []geom.Dir,
	fromB geom.Point, dirsB []geom.Dir, swap bool, win geom.Rect,
	stats *SearchStats, cancel *cancelCheck) ([]Segment, bool, bool) {

	mk := func(from geom.Point, dirs []geom.Dir) *frontState {
		ls := newLineSearch(pl, net, func(geom.Point) bool { return false }, swap, win, nil)
		ls.stats = stats
		ls.cancel = cancel
		f := &frontState{search: ls, owner: map[int]cellOwner{}}
		f.wave = terminalActives(from, dirs)
		for _, a := range f.wave {
			for i := a.iv.Lo; i <= a.iv.Hi; i++ {
				p := a.pt(i, a.index)
				if pl.InBounds(p) {
					ls.ar.markStart(pl.idx(p))
					f.owner[pl.idx(p)] = cellOwner{a: a, i: i, j: a.index}
				}
			}
		}
		return f
	}
	fa := mk(fromA, dirsA)
	fb := mk(fromB, dirsB)

	var sols []joint
	for len(fa.wave) > 0 || len(fb.wave) > 0 {
		if cancel.poll() {
			return nil, false, true // abandoned search: caller checks ctx.Err()
		}
		if len(fa.wave) > 0 {
			expandFrontWave(pl, fa, fb, &sols, true, stats)
			if len(sols) > 0 {
				break
			}
		}
		if len(fb.wave) > 0 {
			expandFrontWave(pl, fb, fa, &sols, false, stats)
			if len(sols) > 0 {
				break
			}
		}
	}
	exact := fa.search.clipWave == noClip && fb.search.clipWave == noClip
	if len(sols) == 0 {
		return nil, false, exact
	}
	best := sols[0]
	for _, s := range sols[1:] {
		if betterJoint(s, best, swap) {
			best = s
		}
	}
	return best.segs, true, exact
}

func betterJoint(a, b joint, swap bool) bool {
	if a.bends != b.bends {
		return a.bends < b.bends
	}
	if swap {
		if a.length != b.length {
			return a.length < b.length
		}
		return a.cross < b.cross
	}
	if a.cross != b.cross {
		return a.cross < b.cross
	}
	return a.length < b.length
}

// expandFrontWave expands one full wave of `self`, records per-cell
// owners, and converts contacts with `other` into joint solutions.
func expandFrontWave(pl *Plane, self, other *frontState, sols *[]joint,
	selfIsA bool, stats *SearchStats) {

	self.search.target = func(p geom.Point) bool {
		if !pl.InBounds(p) {
			return false
		}
		_, met := other.owner[pl.idx(p)]
		return met
	}
	var next []*active
	stats.addWave()
	for _, a := range self.wave {
		stats.addActive()
		// The covered map of a's direction before the expansion: the
		// cells set in it afterwards only are the ones a covered.
		before := slices.Clone(self.search.ar.covered[a.dir])
		next, _ = self.search.expand(a, next, sweepExpand)
		recordOwners(pl, self, a, before)
	}
	for _, sol := range self.search.sols {
		p := sol.a.pt(sol.i, sol.j)
		o, ok := other.owner[pl.idx(p)]
		if !ok {
			continue
		}
		selfSegs := pathBack(sol.a, sol.i, sol.j)
		otherSegs := pathBack(o.a, o.i, o.j)
		var combined []Segment
		if selfIsA {
			combined = append(reversePath(selfSegs), otherSegs...)
		} else {
			combined = append(reversePath(otherSegs), selfSegs...)
		}
		combined = cleanSegments(combined)
		*sols = append(*sols, joint{
			segs:   combined,
			bends:  len(combined) - 1,
			cross:  sol.cross + o.cross,
			length: totalLen(combined),
		})
	}
	self.search.sols = nil
	self.wave = next
}

// reversePath flips a target→source segment list into source→target.
func reversePath(segs []Segment) []Segment {
	out := make([]Segment, len(segs))
	for i, s := range segs {
		out[len(segs)-1-i] = Segment{A: s.B, B: s.A}
	}
	return out
}

// recordOwners attributes every cell newly covered by a's expansion to
// a (replaying the escape lines geometrically), tracking the crossing
// count along each escape.
func recordOwners(pl *Plane, f *frontState, a *active, before []uint64) {
	step := a.step()
	ar := f.search.ar
	for i := a.iv.Lo; i <= a.iv.Hi; i++ {
		j := a.index
		c := a.cross
		for {
			nj := j + step
			p := a.pt(i, nj)
			if !pl.InBounds(p) {
				break
			}
			x, y := p.X-pl.Bounds.Min.X, p.Y-pl.Bounds.Min.Y
			if !ar.coveredIn(ar.covered[a.dir], a.dir, x, y) || ar.coveredIn(before, a.dir, x, y) {
				break
			}
			idx := pl.idx(p)
			if w := f.search.wireAcross(p, a.dir); w != 0 && w != f.search.net {
				c++
			}
			if _, dup := f.owner[idx]; !dup {
				f.owner[idx] = cellOwner{a: a, i: i, j: nj, cross: c}
			}
			j = nj
		}
	}
}
