package place

import (
	"math"

	"netart/internal/geom"
	"netart/internal/netlist"
)

// This file implements the gravity-center driven placement of boxes
// within partitions (§4.6.5), partitions within the diagram (§4.6.6)
// and system terminals on the border (§4.6.7).

// fpoint is a float gravity center; the paper divides integer sums, we
// keep fractions until the final target rounding to avoid bias.
type fpoint struct{ x, y float64 }

func (p fpoint) sub(q fpoint) geom.Point {
	return geom.Pt(int(math.Round(p.x-q.x)), int(math.Round(p.y-q.y)))
}

// modSet collects the modules of a placed box.
func (pb *placedBox) modSet() map[*netlist.Module]bool {
	s := map[*netlist.Module]bool{}
	for _, pm := range pb.mods {
		s[pm.Mod] = true
	}
	return s
}

// sharedNets returns the nets that have a terminal in set a and a
// terminal in set b. Only the nets on the terminals of a's modules can
// qualify, so it visits those rather than every net of the design.
func sharedNets(a, b map[*netlist.Module]bool) map[*netlist.Net]bool {
	out := map[*netlist.Net]bool{}
	for m := range a {
		for _, t := range m.Terms {
			n := t.Net
			if n == nil || out[n] {
				continue
			}
			for _, u := range n.Terms {
				if u.Module != nil && b[u.Module] {
					out[n] = true
					break
				}
			}
		}
	}
	return out
}

// gravity averages the positions of the terminals of mods that lie on
// one of the given nets. pos maps a placed module to the function
// giving absolute terminal positions. ok is false when no terminal
// qualifies.
func gravity(mods []*PlacedModule, origin geom.Point, nets map[*netlist.Net]bool) (fpoint, bool) {
	var sx, sy float64
	n := 0
	for _, pm := range mods {
		for _, t := range pm.Mod.Terms {
			if t.Net == nil || !nets[t.Net] {
				continue
			}
			p := origin.Add(pm.TermPos(t))
			sx += float64(p.X)
			sy += float64(p.Y)
			n++
		}
	}
	if n == 0 {
		return fpoint{}, false
	}
	return fpoint{sx / float64(n), sy / float64(n)}, true
}

// placeBoxesInPartition implements BOX_PLACEMENT for one partition: the
// largest box is placed first; each following box is the most heavily
// connected unplaced one and lands at the free position minimizing the
// distance between the gravity centers of the shared-net terminals.
// Box origins are normalized so the partition's lower-left is (0,0);
// pp.size receives the partition bounding box inflated by PartSpacing.
func placeBoxesInPartition(pp *placedPart, opts Options) {
	if len(pp.boxes) == 0 {
		pp.size = geom.Pt(0, 0)
		return
	}
	// Largest box first (ties: first formed, which was the longest
	// string anyway).
	first := 0
	for i, pb := range pp.boxes {
		if pb.box.Len() > pp.boxes[first].box.Len() {
			first = i
		}
	}
	pp.boxes[0], pp.boxes[first] = pp.boxes[first], pp.boxes[0]
	pp.boxes[0].origin = geom.Pt(0, 0)

	placedRects := []geom.Rect{{Min: geom.Pt(0, 0), Max: pp.boxes[0].size}}
	placedIdx := []int{0}
	pending := make([]int, 0, len(pp.boxes)-1)
	for i := 1; i < len(pp.boxes); i++ {
		pending = append(pending, i)
	}

	for len(pending) > 0 {
		// SELECT_NEXT_BOX: most nets shared with the placed boxes.
		placedSet := map[*netlist.Module]bool{}
		for _, i := range placedIdx {
			for m := range pp.boxes[i].modSet() {
				placedSet[m] = true
			}
		}
		bestI, bestConn := 0, -1
		for pi, i := range pending {
			conn := len(sharedNets(pp.boxes[i].modSet(), placedSet))
			if conn > bestConn {
				bestI, bestConn = pi, conn
			}
		}
		i := pending[bestI]
		pending = append(pending[:bestI], pending[bestI+1:]...)
		pb := pp.boxes[i]

		nets := sharedNets(pb.modSet(), placedSet)
		g0, ok0 := gravity(pb.mods, geom.Pt(0, 0), nets)
		var g1 fpoint
		ok1 := false
		if ok0 {
			var sx, sy float64
			n := 0
			for _, j := range placedIdx {
				q := pp.boxes[j]
				if g, ok := gravity(q.mods, q.origin, nets); ok {
					// gravity returns a mean; re-weight by recomputing
					// the sums from each placed box.
					cnt := termCount(q.mods, nets)
					sx += g.x * float64(cnt)
					sy += g.y * float64(cnt)
					n += cnt
				}
			}
			if n > 0 {
				g1 = fpoint{sx / float64(n), sy / float64(n)}
				ok1 = true
			}
		}
		var target geom.Point
		if ok0 && ok1 {
			target = g1.sub(g0)
		} else {
			// No shared nets: abut to the right of what is placed.
			target = geom.Pt(boundsOf(placedRects).Max.X+1, 0)
		}
		pb.origin = bestFreeOrigin(target, pb.size, placedRects, opts.BoxSpacing)
		placedRects = append(placedRects, geom.Rect{Min: pb.origin, Max: pb.origin.Add(pb.size)})
		placedIdx = append(placedIdx, i)
	}

	// Normalize: shift so the partition's own lower-left is (0,0) plus
	// the partition margin.
	b := boundsOf(placedRects)
	shift := geom.Pt(opts.PartSpacing-b.Min.X, opts.PartSpacing-b.Min.Y)
	for _, pb := range pp.boxes {
		pb.origin = pb.origin.Add(shift)
	}
	pp.size = geom.Pt(b.Dx()+2*opts.PartSpacing, b.Dy()+2*opts.PartSpacing)
}

func termCount(mods []*PlacedModule, nets map[*netlist.Net]bool) int {
	n := 0
	for _, pm := range mods {
		for _, t := range pm.Mod.Terms {
			if t.Net != nil && nets[t.Net] {
				n++
			}
		}
	}
	return n
}

func boundsOf(rects []geom.Rect) geom.Rect {
	var b geom.Rect
	for i, r := range rects {
		if i == 0 {
			b = r
		} else {
			b = b.Union(r)
		}
	}
	return b
}

// partModSet collects all modules of a placed partition.
func (pp *placedPart) partModSet() map[*netlist.Module]bool {
	s := map[*netlist.Module]bool{}
	if pp.fixed {
		for _, pm := range pp.mods {
			s[pm.Mod] = true
		}
		return s
	}
	for _, pb := range pp.boxes {
		for _, pm := range pb.mods {
			s[pm.Mod] = true
		}
	}
	return s
}

// partGravity averages the terminal positions of pp's modules on the
// given nets, with box origins applied and the partition origin added
// when absolute is true.
func (pp *placedPart) partGravity(nets map[*netlist.Net]bool, absolute bool) (fpoint, int) {
	var sx, sy float64
	n := 0
	addTerm := func(p geom.Point) {
		sx += float64(p.X)
		sy += float64(p.Y)
		n++
	}
	if pp.fixed {
		for _, pm := range pp.mods {
			for _, t := range pm.Mod.Terms {
				if t.Net != nil && nets[t.Net] {
					addTerm(pm.TermPos(t)) // already absolute
				}
			}
		}
	} else {
		for _, pb := range pp.boxes {
			for _, pm := range pb.mods {
				for _, t := range pm.Mod.Terms {
					if t.Net == nil || !nets[t.Net] {
						continue
					}
					p := pb.origin.Add(pm.TermPos(t))
					if absolute {
						p = p.Add(pp.origin)
					}
					addTerm(p)
				}
			}
		}
	}
	if n == 0 {
		return fpoint{}, 0
	}
	return fpoint{sx / float64(n), sy / float64(n)}, n
}

// pinnedPartition builds the pseudo partition holding the manually
// preplaced modules (PABLO -g: "the preplaced part will form a partition
// on its own"). Returns nil when nothing is pinned.
func pinnedPartition(d *netlist.Design, opts Options) *placedPart {
	if len(opts.Fixed) == 0 {
		return nil
	}
	pp := &placedPart{fixed: true}
	for _, m := range d.Modules {
		fx, ok := opts.Fixed[m]
		if !ok {
			continue
		}
		pp.mods = append(pp.mods, &PlacedModule{Mod: m, Pos: fx.Pos, Orient: fx.Orient})
	}
	var b geom.Rect
	for i, pm := range pp.mods {
		if i == 0 {
			b = pm.Rect()
		} else {
			b = b.Union(pm.Rect())
		}
	}
	// Surround the pinned block with the same white space a box would
	// get, so the automatically placed partitions keep routing room
	// clear of its terminals.
	halo := [4]int{}
	for _, pm := range pp.mods {
		for di, dir := range geom.Dirs {
			if s := spacing(pm.Mod, pm.Orient, dir, opts.ModSpacing); s > halo[di] {
				halo[di] = s
			}
		}
	}
	l, r := halo[geom.Left], halo[geom.Right]
	dn, up := halo[geom.Down], halo[geom.Up]
	pp.origin = b.Min.Sub(geom.Pt(l, dn))
	pp.size = geom.Pt(b.Dx()+l+r, b.Dy()+dn+up)
	return pp
}

// placePartitions implements PARTITION_PLACEMENT: the partition with the
// most modules (or the pinned preplaced partition) is placed first; each
// following partition is the most heavily connected one and lands at the
// free position minimizing the gravity center distance.
func placePartitions(parts []*placedPart, pinned *placedPart, opts Options) {
	var placed []*placedPart
	var placedRects []geom.Rect
	pending := append([]*placedPart(nil), parts...)

	if pinned != nil {
		placed = append(placed, pinned)
		placedRects = append(placedRects, geom.Rect{Min: pinned.origin, Max: pinned.origin.Add(pinned.size)})
	} else if len(pending) > 0 {
		first := 0
		for i, pp := range pending {
			if len(pp.partModSet()) > len(pending[first].partModSet()) {
				first = i
			}
		}
		p := pending[first]
		pending = append(pending[:first], pending[first+1:]...)
		p.origin = geom.Pt(0, 0)
		placed = append(placed, p)
		placedRects = append(placedRects, geom.Rect{Min: p.origin, Max: p.origin.Add(p.size)})
	}

	for len(pending) > 0 {
		placedSet := map[*netlist.Module]bool{}
		for _, pp := range placed {
			for m := range pp.partModSet() {
				placedSet[m] = true
			}
		}
		bestI, bestConn := 0, -1
		for i, pp := range pending {
			conn := len(sharedNets(pp.partModSet(), placedSet))
			if conn > bestConn {
				bestI, bestConn = i, conn
			}
		}
		pp := pending[bestI]
		pending = append(pending[:bestI], pending[bestI+1:]...)

		nets := sharedNets(pp.partModSet(), placedSet)
		g0, n0 := pp.partGravity(nets, false)
		var g1 fpoint
		n1 := 0
		{
			var sx, sy float64
			for _, q := range placed {
				g, n := q.partGravity(nets, true)
				sx += g.x * float64(n)
				sy += g.y * float64(n)
				n1 += n
			}
			if n1 > 0 {
				g1 = fpoint{sx / float64(n1), sy / float64(n1)}
			}
		}
		var target geom.Point
		if n0 > 0 && n1 > 0 {
			target = g1.sub(g0)
		} else {
			target = geom.Pt(boundsOf(placedRects).Max.X+1, 0)
		}
		pp.origin = bestFreeOrigin(target, pp.size, placedRects, opts.PartSpacing)
		placed = append(placed, pp)
		placedRects = append(placedRects, geom.Rect{Min: pp.origin, Max: pp.origin.Add(pp.size)})
	}
}

// bestFreeOrigin finds the origin closest to target (squared Euclidean
// distance, the paper's criterion in PLACE_BOX / PLACE_PARTITION) such
// that the rectangle of the given size, inflated by spacing, overlaps
// none of the placed rectangles. The ring search is exact: a candidate
// found at distance d is only accepted once every ring with minimum
// distance <= d has been scanned.
func bestFreeOrigin(target, size geom.Point, placed []geom.Rect, spacing int) geom.Point {
	free := func(p geom.Point) bool {
		r := geom.Rect{Min: p, Max: p.Add(size)}.Inset(-spacing)
		for _, q := range placed {
			if r.Overlaps(q) {
				return false
			}
		}
		return true
	}
	if len(placed) == 0 {
		return target
	}
	ext := boundsOf(placed)
	// Anything beyond the placed extent plus our own size is certainly
	// free, so the search terminates within this radius.
	limit := ext.Dx() + ext.Dy() + size.X + size.Y + 2*spacing + 4

	best := geom.Point{}
	bestD := math.MaxInt
	found := false
	for r := 0; r <= limit; r++ {
		if found && bestD <= r*r {
			break
		}
		for _, p := range chebyshevRing(target, r) {
			if !free(p) {
				continue
			}
			if d := p.SqDist(target); d < bestD {
				best, bestD, found = p, d, true
			}
		}
	}
	if !found {
		// Unreachable in practice; fall back to the right of everything.
		return geom.Pt(ext.Max.X+spacing+1, target.Y)
	}
	return best
}

// chebyshevRing enumerates the grid points at Chebyshev distance r from
// c.
func chebyshevRing(c geom.Point, r int) []geom.Point {
	if r == 0 {
		return []geom.Point{c}
	}
	out := make([]geom.Point, 0, 8*r)
	for x := -r; x <= r; x++ {
		out = append(out, c.Add(geom.Pt(x, r)), c.Add(geom.Pt(x, -r)))
	}
	for y := -r + 1; y <= r-1; y++ {
		out = append(out, c.Add(geom.Pt(r, y)), c.Add(geom.Pt(-r, y)))
	}
	return out
}

// placeTerminals implements TERMINAL_PLACEMENT (§4.6.7): every system
// terminal goes to the free position on the ring one track outside the
// module bounding box that is closest to the gravity center of the
// subsystem terminals on its net.
func placeTerminals(r *Result) {
	if len(r.Design.SysTerms) == 0 {
		return
	}
	ring := perimeterRing(r.ModuleBounds)
	occupied := map[geom.Point]bool{}
	// A ring position that is the outward escape cell of a connected
	// subsystem terminal would make that terminal unroutable (its only
	// approach track would be blocked); reserve those cells.
	for _, m := range r.Design.Modules {
		pm, ok := r.Mods[m]
		if !ok {
			continue
		}
		for _, tm := range m.Terms {
			if tm.Net == nil {
				continue
			}
			out := pm.TermPos(tm).Add(pm.TermSide(tm).Delta())
			occupied[out] = true
		}
	}
	for _, st := range r.Design.SysTerms {
		g, ok := terminalGravity(r, st)
		if !ok {
			g = r.ModuleBounds.Center()
		}
		best := geom.Point{}
		bestD := math.MaxInt
		for _, p := range ring {
			if occupied[p] {
				continue
			}
			if d := p.SqDist(g); d < bestD {
				best, bestD = p, d
			}
		}
		// The ring always has more positions than terminals for any
		// non-degenerate design; if it were exhausted we grow outward.
		if bestD == math.MaxInt {
			ring = perimeterRing(r.ModuleBounds.Inset(-2))
			for _, p := range ring {
				if occupied[p] {
					continue
				}
				if d := p.SqDist(g); d < bestD {
					best, bestD = p, d
				}
			}
		}
		occupied[best] = true
		r.SysPos[st] = best
	}
}

// terminalGravity returns the mean position of the subsystem terminals
// connected to st's net.
func terminalGravity(r *Result, st *netlist.Terminal) (geom.Point, bool) {
	if st.Net == nil {
		return geom.Point{}, false
	}
	var sx, sy, n int
	for _, t := range st.Net.Terms {
		if t.Module == nil {
			continue
		}
		pm, ok := r.Mods[t.Module]
		if !ok {
			continue
		}
		p := pm.TermPos(t)
		sx += p.X
		sy += p.Y
		n++
	}
	if n == 0 {
		return geom.Point{}, false
	}
	return geom.Pt(sx/n, sy/n), true
}

// perimeterRing lists the grid positions one track outside b. b uses
// cell semantics (Max exclusive), but module symbols occupy their
// outline points inclusively, so the ring runs from Min-1 to Max+1 in
// point coordinates.
func perimeterRing(b geom.Rect) []geom.Point {
	x0, y0 := b.Min.X-1, b.Min.Y-1
	x1, y1 := b.Max.X+1, b.Max.Y+1
	var out []geom.Point
	for x := x0; x <= x1; x++ {
		out = append(out, geom.Pt(x, y0), geom.Pt(x, y1))
	}
	for y := y0 + 1; y <= y1-1; y++ {
		out = append(out, geom.Pt(x0, y), geom.Pt(x1, y))
	}
	return out
}
