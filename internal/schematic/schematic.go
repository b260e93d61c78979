// Package schematic models the finished diagram — placed modules,
// placed system terminals and routed nets — and provides the quality
// metrics of §3.2 (wire length, bends, crossovers, branching nodes,
// signal flow), an independent structural verifier (standing in for the
// ESCHER simulation check of §6), text and SVG renderers, and the
// ESCHER file format of Appendix D.
package schematic

import (
	"fmt"
	"math"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
)

// Diagram bundles a placement with an optional routing.
type Diagram struct {
	Design    *netlist.Design
	Placement *place.Result
	Routing   *route.Result // nil for placement-only diagrams
	// Degraded is non-nil when the diagram is a best-effort partial
	// result: the generation pipeline exhausted its degradation ladder
	// and kept the least-bad routing instead of failing the request.
	// Renderers append it as a diagnostic block so a degraded artwork
	// is never mistaken for a clean one.
	Degraded *Degradation
}

// Degradation reports what a partial diagram still preserves and what
// it lost — the machine-checkable record of a best-effort generation
// (the paper treats unrouted nets as reportable, not fatal; §6 lists
// them per figure).
type Degradation struct {
	// Attempts names the degradation-ladder rungs that were tried, in
	// order (e.g. "route[line-expansion]", "route[dual-front]",
	// "route[lee+rip-up]").
	Attempts []string
	// Unrouted lists the incomplete nets as "net: term1 term2 ..."
	// (the terminals that stayed unconnected).
	Unrouted []string
	// Reason is a one-line human summary.
	Reason string
}

// Block renders the degradation report as a multi-line diagnostic
// block, one line per fact, suitable for appending to any text
// rendering.
func (dg *Degradation) Block() string {
	if dg == nil {
		return ""
	}
	s := "DEGRADED: " + dg.Reason + "\n"
	if len(dg.Attempts) > 0 {
		s += "  attempts:"
		for _, a := range dg.Attempts {
			s += " " + a
		}
		s += "\n"
	}
	for _, u := range dg.Unrouted {
		s += "  unrouted " + u + "\n"
	}
	return s
}

// FromPlacement wraps a placement-only diagram (the intermediate result
// of figure 3.2 before nets are added).
func FromPlacement(pr *place.Result) *Diagram {
	return &Diagram{Design: pr.Design, Placement: pr}
}

// FromRouting wraps a fully generated diagram.
func FromRouting(rr *route.Result) *Diagram {
	return &Diagram{Design: rr.Placement.Design, Placement: rr.Placement, Routing: rr}
}

// Metrics are the readability measures of §3.2: "The traceability of
// wires is enhanced by reducing wire length, the number of crossovers
// and the number of bends... the number of branching nodes is kept as
// low as possible", plus the left-to-right signal flow of Rule 3 and
// the unrouted count of §6.
type Metrics struct {
	WireLength int
	Bends      int
	Crossings  int
	Branches   int
	Unrouted   int
	Area       int
	// FlowRight is the fraction of driver→sink module pairs whose
	// driver terminal lies left of the sink terminal (Rule 3), in
	// [0,1]; NaN-free: 0 when no pairs exist.
	FlowRight float64
}

// netGraph is the point adjacency of one net's wire tree.
type netGraph struct {
	adj map[geom.Point][]geom.Point
}

func buildGraph(segs []route.Segment) *netGraph {
	g := &netGraph{adj: map[geom.Point][]geom.Point{}}
	link := func(a, b geom.Point) {
		for _, x := range g.adj[a] {
			if x == b {
				return
			}
		}
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
	}
	for _, s := range segs {
		pts := s.Points()
		for i := 1; i < len(pts); i++ {
			link(pts[i-1], pts[i])
		}
	}
	return g
}

// bendsAndBranches counts direction changes at degree-2 points and
// points of degree three or more.
func (g *netGraph) bendsAndBranches() (bends, branches int) {
	for p, ns := range g.adj {
		switch {
		case len(ns) == 2:
			d0 := ns[0].Sub(p)
			d1 := ns[1].Sub(p)
			if d0.X*d1.X+d0.Y*d1.Y == 0 { // perpendicular
				bends++
			}
		case len(ns) >= 3:
			branches++
		}
	}
	return bends, branches
}

// connected reports whether all the given points lie in one component
// of the graph.
func (g *netGraph) connected(pts []geom.Point) bool {
	if len(g.adj) == 0 {
		return len(pts) == 0
	}
	start := pts[0]
	if _, ok := g.adj[start]; !ok {
		return false
	}
	seen := map[geom.Point]bool{start: true}
	stack := []geom.Point{start}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range g.adj[p] {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	for _, p := range pts {
		if !seen[p] {
			return false
		}
	}
	// Also require the whole tree to be one component (no stray
	// islands).
	for p := range g.adj {
		if !seen[p] {
			return false
		}
	}
	return true
}

// Metrics computes the diagram's quality measures.
func (d *Diagram) Metrics() Metrics {
	var m Metrics
	m.Area = d.Placement.Bounds.Area()
	m.FlowRight = flowScore(d.Placement)
	if d.Routing == nil {
		return m
	}
	occupied := map[geom.Point][2]int32{} // point -> [hNet, vNet]
	for _, rn := range d.Routing.Nets {
		if !rn.OK() {
			m.Unrouted++
		}
		id := d.Routing.NetID[rn.Net]
		g := buildGraph(rn.Segments)
		b, br := g.bendsAndBranches()
		m.Bends += b
		m.Branches += br
		for _, s := range rn.Segments {
			m.WireLength += s.Len()
			for _, p := range s.Points() {
				o := occupied[p]
				if s.Horizontal() {
					o[0] = id
				} else {
					o[1] = id
				}
				occupied[p] = o
			}
		}
	}
	for _, o := range occupied {
		if o[0] != 0 && o[1] != 0 && o[0] != o[1] {
			m.Crossings++
		}
	}
	return m
}

// flowScore computes Rule 3 compliance: over all (driver terminal, sink
// terminal) pairs of each net living on distinct modules, the fraction
// where the driver's x is strictly less than the sink's x.
func flowScore(pr *place.Result) float64 {
	good, total := 0, 0
	for _, n := range pr.Design.Nets {
		for _, drv := range n.Terms {
			if drv.Module == nil || !drv.Type.CanDrive() {
				continue
			}
			dp, err := pr.TermPos(drv)
			if err != nil {
				continue
			}
			for _, snk := range n.Terms {
				if snk.Module == nil || snk.Module == drv.Module || !snk.Type.CanSink() {
					continue
				}
				if drv.Type == netlist.InOut && snk.Type == netlist.InOut {
					continue
				}
				sp, err := pr.TermPos(snk)
				if err != nil {
					continue
				}
				total++
				if dp.X < sp.X {
					good++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(good) / float64(total)
}

// Verify checks the routed diagram independently of the router's own
// bookkeeping — the role the ESCHER simulation played in §6 ("To check
// whether the routing has been done correctly, the schematic diagram
// has been simulated"): every complete net's geometry must form one
// connected tree touching exactly its own terminals, wires may not
// enter module interiors or foreign terminals, no two nets may share a
// point in the same axis, and every crossing must be a plain
// perpendicular crossing of two straight runs.
func (d *Diagram) Verify() error {
	if err := d.Placement.Verify(); err != nil {
		return err
	}
	if d.Routing == nil {
		return nil
	}

	termOwner := map[geom.Point]*netlist.Net{}
	for _, n := range d.Design.Nets {
		for _, t := range n.Terms {
			p, err := d.Placement.TermPos(t)
			if err != nil {
				return err
			}
			if prev, dup := termOwner[p]; dup && prev != n {
				return fmt.Errorf("schematic: terminal position %v shared by nets %q and %q",
					p, prev.Name, n.Name)
			}
			termOwner[p] = n
		}
	}

	interior := d.interiorIndex()

	type occ struct {
		h, v *netlist.Net
	}
	occupied := map[geom.Point]*occ{}

	for _, rn := range d.Routing.Nets {
		for _, s := range rn.Segments {
			if s.A.X != s.B.X && s.A.Y != s.B.Y {
				return fmt.Errorf("schematic: net %q has a diagonal segment", rn.Net.Name)
			}
			for _, p := range s.Points() {
				// Module interiors are forbidden; outlines only at own
				// terminals.
				if mod := interior.at(p); mod != nil {
					return fmt.Errorf("schematic: net %q enters module %q at %v",
						rn.Net.Name, mod.Name, p)
				}
				if owner, isTerm := termOwner[p]; isTerm && owner != rn.Net {
					return fmt.Errorf("schematic: net %q touches terminal of %q at %v",
						rn.Net.Name, owner.Name, p)
				}
				o := occupied[p]
				if o == nil {
					o = &occ{}
					occupied[p] = o
				}
				if s.Horizontal() {
					if o.h != nil && o.h != rn.Net {
						return fmt.Errorf("schematic: nets %q and %q overlap horizontally at %v",
							o.h.Name, rn.Net.Name, p)
					}
					o.h = rn.Net
				} else {
					if o.v != nil && o.v != rn.Net {
						return fmt.Errorf("schematic: nets %q and %q overlap vertically at %v",
							o.v.Name, rn.Net.Name, p)
					}
					o.v = rn.Net
				}
			}
		}
	}

	// Crossing points of two different nets must be straight-through
	// for both (no net ends or bends on a crossing).
	for _, rn := range d.Routing.Nets {
		g := buildGraph(rn.Segments)
		for p, ns := range g.adj {
			o := occupied[p]
			if o == nil || o.h == nil || o.v == nil || o.h == o.v {
				continue
			}
			// p is a crossing: this net must pass straight through.
			if len(ns) != 2 {
				return fmt.Errorf("schematic: net %q has a non-straight joint on a crossing at %v",
					rn.Net.Name, p)
			}
			d0, d1 := ns[0].Sub(p), ns[1].Sub(p)
			if d0.X*d1.X+d0.Y*d1.Y == 0 {
				return fmt.Errorf("schematic: net %q bends on a crossing at %v", rn.Net.Name, p)
			}
		}
	}

	// Connectivity: every complete net forms one tree over its
	// terminals.
	for _, rn := range d.Routing.Nets {
		if !rn.OK() || rn.Net.Degree() < 2 {
			continue
		}
		var pts []geom.Point
		for _, t := range rn.Net.Terms {
			p, err := d.Placement.TermPos(t)
			if err != nil {
				return err
			}
			pts = append(pts, p)
		}
		g := buildGraph(rn.Segments)
		if !g.connected(pts) {
			return fmt.Errorf("schematic: net %q geometry does not connect its terminals", rn.Net.Name)
		}
	}
	return nil
}

// moduleInteriors maps points to the module whose interior — its
// rectangle without the outline — contains them, over a dense grid
// spanning every interior. Where interiors overlap, the module first in
// design order owns the point, as a scan of the module list would find.
type moduleInteriors struct {
	box  geom.Rect // inclusive point bounds of the grid; empty grid when Min > Max
	w    int
	mods []*netlist.Module
	cell []int32 // 1 + index into mods; 0 outside every interior
}

func (d *Diagram) interiorIndex() *moduleInteriors {
	// Inclusive interior points per module; a module thinner than three
	// points has none (Min > Max on that axis).
	inner := make([]geom.Rect, len(d.Design.Modules))
	box := geom.Rect{Min: geom.Pt(math.MaxInt, math.MaxInt), Max: geom.Pt(math.MinInt, math.MinInt)}
	for k, mod := range d.Design.Modules {
		r := d.Placement.Mods[mod].Rect()
		in := geom.Rect{Min: geom.Pt(r.Min.X+1, r.Min.Y+1), Max: geom.Pt(r.Max.X-1, r.Max.Y-1)}
		inner[k] = in
		if in.Min.X <= in.Max.X && in.Min.Y <= in.Max.Y {
			box.Min = geom.Pt(min(box.Min.X, in.Min.X), min(box.Min.Y, in.Min.Y))
			box.Max = geom.Pt(max(box.Max.X, in.Max.X), max(box.Max.Y, in.Max.Y))
		}
	}
	ix := &moduleInteriors{box: box, mods: d.Design.Modules}
	if box.Min.X > box.Max.X {
		return ix
	}
	ix.w = box.Max.X - box.Min.X + 1
	ix.cell = make([]int32, ix.w*(box.Max.Y-box.Min.Y+1))
	for k, in := range inner {
		for y := in.Min.Y; y <= in.Max.Y; y++ {
			row := (y-box.Min.Y)*ix.w - box.Min.X
			for x := in.Min.X; x <= in.Max.X; x++ {
				if ix.cell[row+x] == 0 {
					ix.cell[row+x] = int32(k) + 1
				}
			}
		}
	}
	return ix
}

// at returns the module whose interior contains p, or nil.
func (ix *moduleInteriors) at(p geom.Point) *netlist.Module {
	b := ix.box
	if p.X < b.Min.X || p.X > b.Max.X || p.Y < b.Min.Y || p.Y > b.Max.Y {
		return nil
	}
	if k := ix.cell[(p.Y-b.Min.Y)*ix.w+p.X-b.Min.X]; k != 0 {
		return ix.mods[k-1]
	}
	return nil
}
