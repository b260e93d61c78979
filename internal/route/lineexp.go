package route

import (
	"sort"

	"netart/internal/geom"
)

// This file implements the line-expansion principle of §5.5/§5.6
// (after Heyns, Sansen & Beke [7]): whole active segments are expanded
// perpendicular to their direction; the borders of each expansion zone
// become the next wave's active segments. Waves are processed in order
// of their bend count, so the first wave that reaches the target yields
// a path with the minimum number of bends; scanning the complete wave
// before committing lets the router pick, among the minimum-bend
// solutions, the one with the fewest wire crossings and then the
// smallest wire length (§5.6.1; the -s option of Appendix F swaps the
// last two criteria).

// active is the ten-tuple of §5.6.2 in struct form: a segment of
// already-reached cells together with its expansion direction, wave
// (bend) number, crossing count, and its originator for the trace-back.
//
// The crossing count is a single value, not the paper's per-cell list:
// new actives are split at crossing cells (a crossing cannot be a
// turning point), so every cell of one active was reached across the
// same set of foreign wires and carries the same count.
type active struct {
	index  int           // the fixed coordinate: row for horizontal segments (dir up/down), column for vertical
	iv     geom.Interval // cell range along the segment
	dir    geom.Dir      // expansion direction, perpendicular to the segment
	bends  int           // wave number b
	cross  int           // crossings c on the path to every cell
	parent *active       // originator
}

// pt maps segment coordinates to plane points: i runs along the
// segment, j along the expansion axis.
func (a *active) pt(i, j int) geom.Point {
	if a.dir == geom.Up || a.dir == geom.Down {
		return geom.Pt(i, j)
	}
	return geom.Pt(j, i)
}

// step is the signed unit of the expansion axis.
func (a *active) step() int {
	if a.dir == geom.Up || a.dir == geom.Right {
		return 1
	}
	return -1
}

// solution records one contact with the target set.
type solution struct {
	a      *active
	i, j   int // contact coordinates in a's frame
	cross  int
	length int
	segs   []Segment
}

// lineSearch is one invocation of the expansion engine: route from a
// set of initial actives to a target predicate over plane points.
//
// Coverage bookkeeping lives in the arena: one bit per expansion
// direction per cell — a cell stops an escape only when it was already
// swept in the same direction. This mirrors the paper's directional
// obstacle sets (new vertical actives are added to vertical-segments
// and block only horizontal escapes, and vice versa) and preserves the
// minimum bend guarantee: when an escape is stopped by a same-direction
// mark, every cell beyond it was already covered at an equal or lower
// wave number by the sweep that made the mark.
type lineSearch struct {
	pl     *Plane
	net    int32
	ar     *searchArena // covered marks + wavefront scratch; never nil
	win    geom.Rect    // inclusive search window; escapes stop at its edge
	target func(geom.Point) bool
	marks  bool // target set precomputed as arena marks (setTargets)
	sols   []solution
	swap   bool         // -s: compare length before crossings
	stats  *SearchStats // optional counters; nil disables
	cancel *cancelCheck // optional cancellation; nil never cancels

	// clipWave is the lowest wave at which an escape was cut short by
	// the window edge (noClip if never): the cut cell was passable, so
	// an unwindowed search would have swept on. solWave is the wave the
	// solutions were found at (-1 on failure). Together they decide
	// exactness — see exact().
	clipWave int
	solWave  int
}

// noClip marks a search whose escapes all stopped naturally (obstacle,
// covered zone, wire) before the window edge.
const noClip = 1 << 30

// exact reports whether the search outcome is provably identical to an
// unwindowed search from the same state. The window is a rectangle, so
// a path that leaves it can only re-enter (and reach a target, which
// always lies inside) after at least two further bends beyond the wave
// where it crossed the edge. Hence:
//
//   - a solution at wave W is exact when no escape was clipped at wave
//     <= W-2: every outside detour would finish at a wave > W, and the
//     wave-W tie-break pool (crossings, then length) is identical to
//     the unwindowed one;
//   - a failed search is exact when no escape was clipped at all: the
//     window never constrained the expansion, so the unwindowed search
//     would have died out identically.
//
// Inexact outcomes are re-run by the caller on a wider window (ending
// at the full plane, which clips nothing), making windowed ≡ unwindowed
// a guarantee of the ladder rather than an empirical accident.
func (s *lineSearch) exact() bool {
	if s.solWave < 0 {
		return s.clipWave == noClip
	}
	return s.clipWave >= s.solWave-1
}

// SearchStats counts the work the expansion engine performs — the
// quantities the §5.8 complexity discussion reasons about ("if the
// number of bends is small then a path will be found in no time
// because the number of possible paths will be small").
type SearchStats struct {
	Searches int `json:"searches"`  // individual connection searches run
	Waves    int `json:"waves"`     // wavefronts processed (one per bend level per search)
	Actives  int `json:"actives"`   // active segments expanded
	Cells    int `json:"cells"`     // escape-line cells swept
	MaxBends int `json:"max_bends"` // deepest wave that produced a solution
	RipUps   int `json:"rip_ups"`   // failed nets the rip-up pass attempted to fix
	Widened  int `json:"widened"`   // search-window widening retries (window.go)
}

func (st *SearchStats) addWave() {
	if st != nil {
		st.Waves++
	}
}

func (st *SearchStats) addActive() {
	if st != nil {
		st.Actives++
	}
}

func (st *SearchStats) addCells(n int) {
	if st != nil {
		st.Cells += n
	}
}

func dirBit(d geom.Dir) uint8 { return 1 << uint(d) }

const allDirBits = 0x0f

// newLineSearch prepares one search epoch. A nil arena gets a private
// one (used by callers without a router, like the dual-front fronts);
// a shared arena is acquired here, expiring the previous search's marks.
func newLineSearch(pl *Plane, net int32, target func(geom.Point) bool, swap bool, win geom.Rect, ar *searchArena) *lineSearch {
	if ar == nil {
		ar = newSearchArena(len(pl.blocked))
	}
	ar.acquire()
	return &lineSearch{
		pl:       pl,
		net:      net,
		ar:       ar,
		win:      win,
		target:   target,
		swap:     swap,
		clipWave: noClip,
		solWave:  -1,
	}
}

// setTargets precomputes the target set as arena marks: the given
// points plus every point of the tree segments. This replaces the
// per-cell target closure of the hot sweep with one stamped-array load.
// It is only valid when the predicate is exactly "a listed point or the
// net's own laid geometry": the tree segments are the wires the net has
// laid, so the mark set equals the cells where the plane reports the
// net's own wires.
func (s *lineSearch) setTargets(pts []geom.Point, tree []Segment) {
	for _, p := range pts {
		if s.pl.InBounds(p) {
			s.ar.markTarget(s.pl.idx(p))
		}
	}
	for _, sg := range tree {
		c := sg.Canon()
		for y := c.A.Y; y <= c.B.Y; y++ {
			for x := c.A.X; x <= c.B.X; x++ {
				s.ar.markTarget(s.pl.idx(geom.Pt(x, y)))
			}
		}
	}
	s.marks = true
}

// terminalActives builds the initial wave for a terminal at p escaping
// in the given directions (one outward direction for subsystem
// terminals, all four for system terminals, per INIT_ACTIVES).
func terminalActives(p geom.Point, dirs []geom.Dir) []*active {
	out := make([]*active, 0, len(dirs))
	for _, d := range dirs {
		a := &active{dir: d, bends: 0}
		if d == geom.Up || d == geom.Down {
			a.index = p.Y
			a.iv = geom.Iv(p.X, p.X)
		} else {
			a.index = p.X
			a.iv = geom.Iv(p.Y, p.Y)
		}
		out = append(out, a)
	}
	return out
}

// run processes waves in bend order until a wave produces solutions or
// the frontier dies out. It returns the winning path as cleaned
// segments ordered target→source.
func (s *lineSearch) run(starts []*active) ([]Segment, bool) {
	if len(starts) == 0 {
		return nil, false
	}
	// Mark the start cells covered so escapes do not re-enter them.
	for _, a := range starts {
		for i := a.iv.Lo; i <= a.iv.Hi; i++ {
			p := a.pt(i, a.index)
			if s.pl.InBounds(p) {
				s.ar.markCovered(s.pl.idx(p), allDirBits)
			}
		}
	}
	wave := starts
	bends := 0
	for len(wave) > 0 {
		if bends >= s.clipWave+2 {
			// Any solution from this wave on would be inexact (see
			// exact): an outside detour through the wave-clipWave clip
			// could tie or beat it. Stop the doomed search now and let
			// the caller's ladder widen instead.
			return nil, false
		}
		if s.cancel.poll() {
			return nil, false // abandoned search: caller checks ctx.Err()
		}
		s.stats.addWave()
		// The two wavefront buffers ping-pong out of the arena: next
		// never aliases wave (starts is the caller's, and consecutive
		// waves use alternating buffers).
		next := s.ar.waves[bends&1][:0]
		for _, a := range wave {
			s.stats.addActive()
			next = s.expand(a, next)
		}
		s.ar.waves[bends&1] = next[:0]
		if len(s.sols) > 0 {
			s.solWave = bends
			if s.stats != nil && bends > s.stats.MaxBends {
				s.stats.MaxBends = bends
			}
			best := s.best()
			return cleanSegments(best.segs), true
		}
		wave = next
		bends++
	}
	return nil, false
}

// best picks the winning solution of the current wave: minimum
// crossings then minimum length, or the reverse under -s. Ties resolve
// to the earliest found, which is deterministic.
func (s *lineSearch) best() solution {
	sort.SliceStable(s.sols, func(x, y int) bool {
		a, b := s.sols[x], s.sols[y]
		if s.swap {
			if a.length != b.length {
				return a.length < b.length
			}
			return a.cross < b.cross
		}
		if a.cross != b.cross {
			return a.cross < b.cross
		}
		return a.length < b.length
	})
	return s.sols[0]
}

// expand implements EXPAND_SEGMENT with a per-cell sweep: every cell of
// the active segment sends an escape line in the expansion direction
// until it is stopped by the window edge, an obstacle, a previously
// searched zone, or the target. The stop profile then yields the
// perpendicular border segments, appended to out as the next wave
// (NEW_ACTIVES).
func (s *lineSearch) expand(a *active, out []*active) []*active {
	step := a.step()
	n := a.iv.Len()
	ar := s.ar
	pl := s.pl
	// advance[k]: how many cells the escape from segment cell k
	// travelled. crossAdv flat-stores, per cell, the advance values at
	// which the escape crossed a foreign wire, in travel order (offsets
	// in crossOff). Passable cells that are crossings cannot join new
	// actives.
	advance := ar.advanceBuf(n)
	crossAdv := ar.crossAdv[:0]
	crossOff := ar.crossOffBuf(n + 1)

	// The escape moves one cell at a time along one axis, so the plane
	// index advances by a constant and every per-cell plane query reads
	// the derived stops byte plus the stamped covered word — two loads —
	// instead of five arrays. The window (a clamped subset of the plane)
	// is the only geometric guard needed.
	vertical := a.dir == geom.Up || a.dir == geom.Down
	didx := step
	across := pl.vNet // horizontal escape: crossing wires are vertical
	alongBit, acrossBit := stopHWire, stopVWire
	if vertical {
		didx = step * pl.w
		across = pl.hNet
		alongBit, acrossBit = stopVWire, stopHWire
	}
	dbit := uint32(dirBit(a.dir))
	stamp := ar.gen << coveredStampBits

	// During one escape only the expansion-axis coordinate changes, so
	// the window test reduces to one equality: the escape exits the
	// window exactly when nj reaches wcut (the first coordinate past the
	// window edge in the travel direction). The cross-axis coordinate is
	// inside the window by construction — actives are emitted from swept
	// (in-window) cells and start cells lie in the window's core bbox.
	var wlo, whi int
	if vertical {
		wlo, whi = s.win.Min.Y, s.win.Max.Y
	} else {
		wlo, whi = s.win.Min.X, s.win.Max.X
	}
	wcut := whi + 1
	if step < 0 {
		wcut = wlo - 1
	}

	covered := ar.covered
	stops := pl.stops
	claim := pl.claim
	gen := ar.gen
	marks := s.marks
	net := s.net

	swept := 0
	for k := 0; k < n; k++ {
		if s.cancel.tick() {
			ar.crossAdv = crossAdv
			s.stats.addCells(swept)
			return out // abandoned sweep; run's wave poll ends the search
		}
		crossOff[k] = len(crossAdv)
		i := a.iv.Lo + k
		c := a.cross
		j := a.index
		idx := pl.idx(a.pt(i, j))
		adv := 0
		for {
			nj := j + step
			// The window edge stops escapes exactly like an obstacle.
			// Targets always lie inside the window (they span the bbox
			// the window was grown from), so no contact is missed. The
			// edge counts as a clip only when the cell would have been
			// passable — a boundary coinciding with a natural stop hides
			// nothing.
			if nj == wcut {
				p := a.pt(i, nj)
				if a.bends < s.clipWave && !s.stopsEscape(p) && s.wireAlong(p, a.dir) == 0 {
					s.clipWave = a.bends
				}
				break
			}
			nidx := idx + didx
			cw := covered[nidx]
			if cw>>coveredStampBits != gen {
				cw = stamp
			}
			if uint32(stops[nidx])|(cw&(dbit|targetBit)) != 0 || !marks {
				// Slow path: some condition bit is set (or targets are a
				// closure) — decide hit / stop / crossing explicitly.
				var hit bool
				if marks {
					hit = cw&targetBit != 0
				} else {
					hit = s.target(a.pt(i, nj))
				}
				if hit {
					segs := pathBack(a, i, nj)
					s.sols = append(s.sols, solution{
						a: a, i: i, j: nj,
						cross:  c,
						length: totalLen(segs),
						segs:   segs,
					})
					break
				}
				m := stops[nidx]
				if m&(stopBlocked|stopBend) != 0 {
					break
				}
				if m&stopClaim != 0 && claim[nidx] != net {
					break
				}
				// A wire running along the escape axis can never be
				// shared: nets may cross, not overlap (§5.3). Own-net
				// wires were already handled by the target test above.
				if m&alongBit != 0 {
					break
				}
				if cw&dbit != 0 {
					break
				}
				// Perpendicular foreign wire: cross it (cell is passed
				// but unusable as a turning point).
				if m&acrossBit != 0 && across[nidx] != net {
					c++
					covered[nidx] = cw | dbit
					adv++
					crossAdv = append(crossAdv, adv)
					j = nj
					idx = nidx
					continue
				}
			}
			covered[nidx] = cw | dbit
			adv++
			j = nj
			idx = nidx
		}
		advance[k] = adv
		swept += adv
	}
	crossOff[n] = len(crossAdv)
	ar.crossAdv = crossAdv
	s.stats.addCells(swept)
	return s.newActives(a, advance, crossAdv, crossOff, out)
}

// stopsEscape reports whether the escape line must halt before entering
// p: plane border, blocked point (module, foreign terminal), a bend of
// a routed net, a claimpoint of another net, or a wire running along
// the escape direction (overlap is never allowed, §5.3).
func (s *lineSearch) stopsEscape(p geom.Point) bool {
	if s.pl.Blocked(p) {
		return true
	}
	if s.pl.Bend(p) {
		return true
	}
	if cl := s.pl.Claimpoint(p); cl != 0 && cl != s.net {
		return true
	}
	return false
}

// wireAcross returns the net of a wire perpendicular to the expansion
// direction at p (the crossable kind); wireAlong would be the same-axis
// wire, which stopsEscape treats as blocking through stops in expand.
func (s *lineSearch) wireAcross(p geom.Point, d geom.Dir) int32 {
	if d == geom.Up || d == geom.Down {
		return s.pl.HNet(p) // vertical escape crosses horizontal wires
	}
	return s.pl.VNet(p)
}

func (s *lineSearch) wireAlong(p geom.Point, d geom.Dir) int32 {
	if d == geom.Up || d == geom.Down {
		return s.pl.VNet(p)
	}
	return s.pl.HNet(p)
}

// newActives builds the perpendicular borders of the expansion zone.
// Between neighbouring escape columns with different advances, the
// taller column's extra cells border unexplored territory on the
// shorter side; they form a new active segment expanding toward it,
// with one more bend (NEW_ACTIVES). Border runs are split at crossing
// cells with a single monotone walk over each column's crossing list;
// each run's crossing count is the crossings at or before its first
// cell, uniform over the run because runs never contain a crossing.
func (s *lineSearch) newActives(a *active, advance, crossAdv, crossOff []int, out []*active) []*active {
	step := a.step()
	n := len(advance)
	adv := func(k int) int {
		if k < 0 || k >= n {
			return 0
		}
		return advance[k]
	}

	// decDir/incDir: the direction along the segment axis.
	var decDir, incDir geom.Dir
	if a.dir == geom.Up || a.dir == geom.Down {
		decDir, incDir = geom.Left, geom.Right
	} else {
		decDir, incDir = geom.Down, geom.Up
	}

	flush := func(i, loAdv, hiAdv, cross int, dir geom.Dir) {
		if loAdv > hiAdv {
			return
		}
		na := s.ar.newActive()
		*na = active{
			index:  i,
			iv:     geom.Iv(a.index+step*loAdv, a.index+step*hiAdv),
			dir:    dir,
			bends:  a.bends + 1,
			cross:  cross,
			parent: a,
		}
		out = append(out, na)
	}
	emit := func(k, fromAdv, toAdv int, dir geom.Dir) {
		// Border cells of column k from advance fromAdv+1 .. toAdv.
		i := a.iv.Lo + k
		cj := crossAdv[crossOff[k]:crossOff[k+1]]
		c := a.cross
		for len(cj) > 0 && cj[0] <= fromAdv {
			c++
			cj = cj[1:]
		}
		runLo := fromAdv + 1
		for len(cj) > 0 && cj[0] <= toAdv {
			flush(i, runLo, cj[0]-1, c, dir)
			c++
			runLo = cj[0] + 1
			cj = cj[1:]
		}
		flush(i, runLo, toAdv, c, dir)
	}

	for k := 0; k <= n; k++ {
		left, right := adv(k-1), adv(k)
		if left < right {
			// Column k reaches further: its upper cells border column
			// k-1's side; they expand toward decreasing segment axis.
			emit(k, left, right, decDir)
		} else if left > right {
			emit(k-1, right, left, incDir)
		}
	}
	return out
}

// pathBack reconstructs the route from a contact at (i, j) in a's frame
// back to the source terminal (RECONSTRUCT_PATH): each hop runs along
// the escape to the originator segment, then jumps into the
// originator's frame.
func pathBack(a *active, i, j int) []Segment {
	var segs []Segment
	for {
		from := a.pt(i, j)
		to := a.pt(i, a.index)
		if from != to {
			segs = append(segs, Segment{from, to})
		}
		if a.parent == nil {
			return segs
		}
		i, j = a.index, i
		a = a.parent
	}
}

func totalLen(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += s.Len()
	}
	return n
}

// cleanSegments merges adjacent collinear segments and drops degenerate
// ones, yielding the minimal corner representation of the path.
func cleanSegments(segs []Segment) []Segment {
	var out []Segment
	for _, s := range segs {
		if s.A == s.B {
			continue
		}
		if len(out) > 0 {
			last := &out[len(out)-1]
			if last.B == s.A && last.Horizontal() == s.Horizontal() {
				last.B = s.B
				continue
			}
		}
		out = append(out, s)
	}
	return out
}
