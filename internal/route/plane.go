// Package route implements the routing phase of the schematic diagram
// generator (Koster & Stok §5): a line-expansion router that finds, for
// every net, a path with a minimum number of bends, and among those the
// one with minimum wire crossings and then minimum wire length. The
// claimpoint and prerouted-net extensions of §5.7 are included, as are
// the surveyed baseline routers (Lee maze runner, Hightower line
// router, left-edge channel router) used in the comparison benches.
package route

import (
	"fmt"

	"netart/internal/geom"
)

// Segment is one axis-aligned piece of a routed wire, endpoints
// inclusive.
type Segment struct {
	A, B geom.Point
}

// Horizontal reports whether the segment runs along x.
func (s Segment) Horizontal() bool { return s.A.Y == s.B.Y }

// Len returns the track length of the segment.
func (s Segment) Len() int { return s.A.Manhattan(s.B) }

// Canon returns the segment with endpoints ordered by (x, y), so equal
// segments compare equal.
func (s Segment) Canon() Segment {
	if s.B.X < s.A.X || (s.B.X == s.A.X && s.B.Y < s.A.Y) {
		return Segment{s.B, s.A}
	}
	return s
}

// Points enumerates the grid points of the segment, inclusive.
func (s Segment) Points() []geom.Point {
	d := geom.Pt(sign(s.B.X-s.A.X), sign(s.B.Y-s.A.Y))
	var out []geom.Point
	p := s.A
	for {
		out = append(out, p)
		if p == s.B {
			return out
		}
		p = p.Add(d)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// Plane is the routing plane: a dense point grid carrying the obstacle
// configuration of §5.6.2. Instead of the paper's two obstacle sets
// (horizontal-segments / vertical-segments) it stores per-point
// occupancy, which answers the same queries in O(1):
//
//   - blocked points (module outlines and interiors, plane border,
//     foreign system terminals, claimpoints),
//   - per-direction wire occupancy (a point carrying a horizontal wire
//     of net k blocks horizontal wires of other nets but may be crossed
//     vertically),
//   - bends of routed nets, which block every expansion (the paper:
//     "the expansion is blocked only by modules, bends in nets and the
//     border of the plane").
type Plane struct {
	// Bounds is the inclusive point region [Min.X..Max.X] x
	// [Min.Y..Max.Y]. Note this differs from geom.Rect cell semantics:
	// Max is a valid point.
	Bounds geom.Rect

	w, h    int
	blocked []bool
	termNet []int32 // net id (1-based) whose terminal sits here; 0 none
	hNet    []int32 // net id of wire running horizontally through here
	vNet    []int32
	bend    []bool
	claim   []int32 // net id holding a claimpoint here

	// claimOf indexes claim placements: every plane index ever claimed
	// by a net, appended on setClaim and never removed (entries whose
	// claim has since cleared are skipped on release). Claims are placed
	// once before routing and only removed afterwards, so the index stays
	// tiny and lets ReleaseClaims run in O(net's claims) instead of a
	// full-plane scan per net.
	claimOf map[int32][]int32

	// stops caches, per point, one bit per condition the expansion
	// engine's escape sweep tests (stop* constants). It is derived state,
	// recomputed on every mutating write, so the hot sweep reads one byte
	// instead of five arrays; the slow accessors stay authoritative.
	stops []uint8
}

// stops bits. stopHWire/stopVWire mean "a wire of some net runs through
// here on that axis" — whether that stops or merely crosses an escape
// depends on the escape's direction and net, which the sweep decides.
const (
	stopBlocked uint8 = 1 << iota
	stopBend
	stopClaim
	stopHWire
	stopVWire
)

// refreshStops recomputes the derived stop bits of point i.
func (pl *Plane) refreshStops(i int) {
	var m uint8
	if pl.blocked[i] {
		m |= stopBlocked
	}
	if pl.bend[i] {
		m |= stopBend
	}
	if pl.claim[i] != 0 {
		m |= stopClaim
	}
	if pl.hNet[i] != 0 {
		m |= stopHWire
	}
	if pl.vNet[i] != 0 {
		m |= stopVWire
	}
	pl.stops[i] = m
}

// NewPlane returns an empty plane over the inclusive point region.
func NewPlane(bounds geom.Rect) *Plane {
	w := bounds.Max.X - bounds.Min.X + 1
	h := bounds.Max.Y - bounds.Min.Y + 1
	if w < 1 || h < 1 {
		w, h = 1, 1
	}
	n := w * h
	return &Plane{
		Bounds:  bounds,
		w:       w,
		h:       h,
		blocked: make([]bool, n),
		termNet: make([]int32, n),
		hNet:    make([]int32, n),
		vNet:    make([]int32, n),
		bend:    make([]bool, n),
		claim:   make([]int32, n),
		claimOf: make(map[int32][]int32),
		stops:   make([]uint8, n),
	}
}

// InBounds reports whether p is a point of the plane.
func (pl *Plane) InBounds(p geom.Point) bool {
	return p.X >= pl.Bounds.Min.X && p.X <= pl.Bounds.Max.X &&
		p.Y >= pl.Bounds.Min.Y && p.Y <= pl.Bounds.Max.Y
}

func (pl *Plane) idx(p geom.Point) int {
	return (p.Y-pl.Bounds.Min.Y)*pl.w + (p.X - pl.Bounds.Min.X)
}

// BlockRect blocks every point on the outline and interior of the
// inclusive point rectangle (a module symbol of size w x h at pos
// occupies points pos..pos+(w,h)).
func (pl *Plane) BlockRect(min, max geom.Point) {
	for y := geom.Max(min.Y, pl.Bounds.Min.Y); y <= geom.Min(max.Y, pl.Bounds.Max.Y); y++ {
		for x := geom.Max(min.X, pl.Bounds.Min.X); x <= geom.Min(max.X, pl.Bounds.Max.X); x++ {
			i := pl.idx(geom.Pt(x, y))
			pl.blocked[i] = true
			pl.stops[i] |= stopBlocked
		}
	}
}

// BlockPoint blocks a single point.
func (pl *Plane) BlockPoint(p geom.Point) {
	if pl.InBounds(p) {
		i := pl.idx(p)
		pl.blocked[i] = true
		pl.stops[i] |= stopBlocked
	}
}

// SetTerminal marks p as a terminal of the given net (1-based id). The
// point stays blocked for every other net but is a legal wire endpoint
// for its own.
func (pl *Plane) SetTerminal(p geom.Point, net int32) error {
	if !pl.InBounds(p) {
		return fmt.Errorf("route: terminal %v outside plane %v", p, pl.Bounds)
	}
	i := pl.idx(p)
	if pl.termNet[i] != 0 && pl.termNet[i] != net {
		return fmt.Errorf("route: terminal conflict at %v: nets %d and %d", p, pl.termNet[i], net)
	}
	pl.termNet[i] = net
	return nil
}

// Terminal returns the terminal net id at p (0 if none).
func (pl *Plane) Terminal(p geom.Point) int32 {
	if !pl.InBounds(p) {
		return 0
	}
	return pl.termNet[pl.idx(p)]
}

// Blocked reports whether p is a hard obstacle point (module, border
// handled by InBounds, or explicit block).
func (pl *Plane) Blocked(p geom.Point) bool {
	return !pl.InBounds(p) || pl.blocked[pl.idx(p)]
}

// HNet and VNet return the wire occupancy at p per axis.
func (pl *Plane) HNet(p geom.Point) int32 {
	if !pl.InBounds(p) {
		return 0
	}
	return pl.hNet[pl.idx(p)]
}

// VNet returns the net whose wire runs vertically through p.
func (pl *Plane) VNet(p geom.Point) int32 {
	if !pl.InBounds(p) {
		return 0
	}
	return pl.vNet[pl.idx(p)]
}

// Bend reports whether a routed net has a corner or junction at p.
func (pl *Plane) Bend(p geom.Point) bool {
	if !pl.InBounds(p) {
		return false
	}
	return pl.bend[pl.idx(p)]
}

// Claimpoint returns the net holding a claim at p (0 if none).
func (pl *Plane) Claimpoint(p geom.Point) int32 {
	if !pl.InBounds(p) {
		return 0
	}
	return pl.claim[pl.idx(p)]
}

// Claim reserves p for the given net (§5.7). It is a no-op if the point
// is blocked or already carries a wire or another claim: claimpoints
// are best effort.
func (pl *Plane) Claim(p geom.Point, net int32) {
	if !pl.InBounds(p) {
		return
	}
	i := pl.idx(p)
	if pl.blocked[i] || pl.hNet[i] != 0 || pl.vNet[i] != 0 || pl.claim[i] != 0 || pl.termNet[i] != 0 {
		return
	}
	pl.setClaim(i, net)
}

// ReleaseClaims removes every claimpoint of the given net ("when the
// routing of A and B starts, both their claimpoints are removed").
func (pl *Plane) ReleaseClaims(net int32) {
	for _, i := range pl.claimOf[net] {
		if pl.claim[i] == net {
			pl.setClaim(int(i), 0)
		}
	}
}

// ReleaseAllClaims removes every claimpoint, done before the final
// retry pass over unrouted nets.
func (pl *Plane) ReleaseAllClaims() {
	for _, idxs := range pl.claimOf {
		for _, i := range idxs {
			if pl.claim[i] != 0 {
				pl.setClaim(int(i), 0)
			}
		}
	}
}

// LayWire adds a routed wire to the obstacle configuration. Interior
// points of each segment get directional occupancy; segment joints
// (corners and junctions) are marked as bends, which block crossing.
// Endpoints on terminals stay crossable only by nothing — they get both
// directional marks.
func (pl *Plane) LayWire(net int32, segs []Segment) error {
	// Drop degenerate zero-length segments up front so they neither
	// mark occupancy nor fake junction endpoints.
	kept := segs[:0:0]
	for _, s := range segs {
		if s.A != s.B {
			kept = append(kept, s)
		}
	}
	segs = kept

	// First pass: validate.
	for _, s := range segs {
		if s.A.X != s.B.X && s.A.Y != s.B.Y {
			return fmt.Errorf("route: wire segment %v-%v not axis aligned", s.A, s.B)
		}
		for _, p := range s.Points() {
			if !pl.InBounds(p) {
				return fmt.Errorf("route: wire point %v outside plane", p)
			}
			i := pl.idx(p)
			if pl.blocked[i] && pl.termNet[i] != net {
				return fmt.Errorf("route: wire of net %d crosses obstacle at %v", net, p)
			}
			if pl.termNet[i] != 0 && pl.termNet[i] != net {
				return fmt.Errorf("route: wire of net %d touches foreign terminal at %v", net, p)
			}
			if s.Horizontal() {
				if h := pl.hNet[i]; h != 0 && h != net {
					return fmt.Errorf("route: horizontal overlap of nets %d and %d at %v", net, h, p)
				}
			} else {
				if v := pl.vNet[i]; v != 0 && v != net {
					return fmt.Errorf("route: vertical overlap of nets %d and %d at %v", net, v, p)
				}
			}
			if pl.bend[i] {
				// A segment may terminate on a bend of its own net (a
				// junction at an existing corner); it may never pass
				// through any bend, nor touch a foreign one.
				ownBend := pl.hNet[i] == net || pl.vNet[i] == net || pl.termNet[i] == net
				isEnd := p == s.A || p == s.B
				if !ownBend || !isEnd {
					return fmt.Errorf("route: wire of net %d crosses a bend at %v", net, p)
				}
			}
		}
	}

	// Second pass: occupancy and bend marks.
	for _, s := range segs {
		for _, p := range s.Points() {
			i := pl.idx(p)
			if s.Horizontal() && s.Len() > 0 {
				pl.setH(i, net)
			}
			if !s.Horizontal() && s.Len() > 0 {
				pl.setV(i, net)
			}
		}
	}
	// Corner / junction marking: a point owned by this net in both
	// directions, or a segment endpoint that is not a terminal, becomes
	// a bend obstacle.
	ends := map[geom.Point]int{}
	for _, s := range segs {
		ends[s.A]++
		ends[s.B]++
	}
	for p, n := range ends {
		i := pl.idx(p)
		both := pl.hNet[i] == net && pl.vNet[i] == net
		// Corners (wire in both axes), junctions (several segment ends)
		// and endpoints landing on previously laid wire of the same net
		// block crossing; a plain terminal endpoint reached by a single
		// straight segment needs no mark (its point is blocked anyway).
		if both || n > 1 || pl.termNet[i] != net {
			pl.setBend(i)
		}
	}
	return nil
}

// Mutable-field setters. All routing-time writes go through these so
// the derived stops byte stays in step with the authoritative arrays.

func (pl *Plane) setH(i int, v int32) {
	pl.hNet[i] = v
	pl.refreshStops(i)
}

func (pl *Plane) setV(i int, v int32) {
	pl.vNet[i] = v
	pl.refreshStops(i)
}

func (pl *Plane) setBend(i int) {
	pl.bend[i] = true
	pl.stops[i] |= stopBend
}

func (pl *Plane) setClaim(i int, v int32) {
	if v != 0 {
		pl.claimOf[v] = append(pl.claimOf[v], int32(i))
	}
	pl.claim[i] = v
	pl.refreshStops(i)
}

// Equal reports whether two planes carry byte-identical cell state
// (bounds and all six per-point arrays). Used by the determinism tests.
func (pl *Plane) Equal(o *Plane) bool {
	if pl.Bounds != o.Bounds || pl.w != o.w || pl.h != o.h {
		return false
	}
	for i := range pl.blocked {
		if pl.blocked[i] != o.blocked[i] || pl.termNet[i] != o.termNet[i] ||
			pl.hNet[i] != o.hNet[i] || pl.vNet[i] != o.vNet[i] ||
			pl.bend[i] != o.bend[i] || pl.claim[i] != o.claim[i] {
			return false
		}
	}
	return true
}
