// Package place implements the placement phase of the schematic diagram
// generator (Koster & Stok §4.6): module placement inside boxes, box
// placement inside partitions, partition placement, and system terminal
// placement. It also provides the surveyed baseline placers (epitaxial
// growth, min-cut bipartitioning, logic-schematic columns) used for the
// comparison benchmarks.
package place

import (
	"fmt"

	"netart/internal/boxes"
	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/partition"
	"netart/internal/resilience"
)

// Options mirrors the PABLO command line of Appendix E.
type Options struct {
	PartSize       int // -p: maximum modules per partition (default 1)
	BoxSize        int // -b: maximum string length (default 1)
	MaxConnections int // -c: external net budget per partition (default unlimited)
	PartSpacing    int // -e: extra tracks around each partition
	BoxSpacing     int // -i: extra tracks around each box
	ModSpacing     int // -s: extra tracks around each module
	// Fixed holds manually preplaced modules (-g). They form a
	// partition of their own, pinned at their given absolute positions;
	// the remaining modules are placed around them.
	Fixed map[*netlist.Module]Fixed
	// Inject, when non-nil, arms the resilience.SitePlaceBox fault
	// site: it is fired once per box before module placement, so chaos
	// tests can force deterministic placement failures. Nil costs one
	// pointer compare per box.
	Inject *resilience.Injector
}

// Fixed pins one module at an absolute position and orientation.
type Fixed struct {
	Pos    geom.Point
	Orient geom.Orient
}

// PlacedModule is a module with its absolute lower-left position and
// orientation.
type PlacedModule struct {
	Mod    *netlist.Module
	Pos    geom.Point
	Orient geom.Orient
}

// Size returns the rotated module dimensions.
func (p *PlacedModule) Size() (w, h int) {
	return p.Orient.RotateSize(p.Mod.W, p.Mod.H)
}

// Rect returns the occupied rectangle.
func (p *PlacedModule) Rect() geom.Rect {
	w, h := p.Size()
	return geom.Rect{Min: p.Pos, Max: p.Pos.Add(geom.Pt(w, h))}
}

// TermPos returns the absolute position of one of the module's
// terminals.
func (p *PlacedModule) TermPos(t *netlist.Terminal) geom.Point {
	return p.Pos.Add(p.Orient.RotatePoint(t.Pos, p.Mod.W, p.Mod.H))
}

// TermSide returns the side of the placed (rotated) module the terminal
// sits on.
func (p *PlacedModule) TermSide(t *netlist.Terminal) geom.Dir {
	side, err := t.Side()
	if err != nil {
		return geom.Left // unreachable for validated designs
	}
	return p.Orient.RotateDir(side)
}

// PlacedBox is a placed string of modules with its bounding rectangle
// (absolute coordinates).
type PlacedBox struct {
	Box  *boxes.Box
	Rect geom.Rect
}

// PlacedPart is a placed partition.
type PlacedPart struct {
	Part  *partition.Part
	Boxes []*PlacedBox
	Rect  geom.Rect
}

// Result is the output of the placement phase: the input to routing.
type Result struct {
	Design *netlist.Design
	Mods   map[*netlist.Module]*PlacedModule
	SysPos map[*netlist.Terminal]geom.Point
	Parts  []*PlacedPart // structural info; nil for baseline placers

	// ModuleBounds encloses all module symbols; Bounds additionally
	// encloses the system terminals.
	ModuleBounds geom.Rect
	Bounds       geom.Rect
}

// TermPos returns the absolute position of any terminal, subsystem or
// system.
func (r *Result) TermPos(t *netlist.Terminal) (geom.Point, error) {
	if t.Module == nil {
		p, ok := r.SysPos[t]
		if !ok {
			return geom.Point{}, fmt.Errorf("place: system terminal %q not placed", t.Name)
		}
		return p, nil
	}
	pm, ok := r.Mods[t.Module]
	if !ok {
		return geom.Point{}, fmt.Errorf("place: module %q not placed", t.Module.Name)
	}
	return pm.TermPos(t), nil
}

// TermSide returns the outward side of any placed terminal: the module
// side for subsystem terminals, or the side of the diagram border the
// system terminal sits on (pointing back toward the diagram).
func (r *Result) TermSide(t *netlist.Terminal) (geom.Dir, error) {
	if t.Module != nil {
		pm, ok := r.Mods[t.Module]
		if !ok {
			return 0, fmt.Errorf("place: module %q not placed", t.Module.Name)
		}
		return pm.TermSide(t), nil
	}
	p, ok := r.SysPos[t]
	if !ok {
		return 0, fmt.Errorf("place: system terminal %q not placed", t.Name)
	}
	b := r.ModuleBounds
	switch {
	case p.X < b.Min.X:
		return geom.Right, nil // sits left of the diagram, points right
	case p.X >= b.Max.X:
		return geom.Left, nil
	case p.Y < b.Min.Y:
		return geom.Up, nil
	default:
		return geom.Down, nil
	}
}

// Overlap reports the first pair of overlapping module rectangles, or
// ok=false when the placement is overlap free. Used by tests and by
// Verify.
func (r *Result) Overlap() (a, b *netlist.Module, ok bool) {
	mods := r.Design.Modules
	for i := 0; i < len(mods); i++ {
		pi, ok1 := r.Mods[mods[i]]
		if !ok1 {
			continue
		}
		for j := i + 1; j < len(mods); j++ {
			pj, ok2 := r.Mods[mods[j]]
			if !ok2 {
				continue
			}
			if pi.Rect().Overlaps(pj.Rect()) {
				return mods[i], mods[j], true
			}
		}
	}
	return nil, nil, false
}

// Verify checks the placement postcondition of §4.4: every module and
// system terminal placed, no overlaps, no terminal inside a module.
func (r *Result) Verify() error {
	for _, m := range r.Design.Modules {
		if _, ok := r.Mods[m]; !ok {
			return fmt.Errorf("place: module %q not placed", m.Name)
		}
	}
	for _, t := range r.Design.SysTerms {
		if _, ok := r.SysPos[t]; !ok {
			return fmt.Errorf("place: system terminal %q not placed", t.Name)
		}
	}
	if a, b, bad := r.Overlap(); bad {
		return fmt.Errorf("place: modules %q and %q overlap", a.Name, b.Name)
	}
	seen := map[geom.Point]*netlist.Terminal{}
	for _, t := range r.Design.SysTerms {
		p := r.SysPos[t]
		if prev, dup := seen[p]; dup {
			return fmt.Errorf("place: system terminals %q and %q share %v", prev.Name, t.Name, p)
		}
		seen[p] = t
		for _, m := range r.Design.Modules {
			if r.Mods[m].Rect().Contains(p) {
				return fmt.Errorf("place: system terminal %q inside module %q", t.Name, m.Name)
			}
		}
	}
	return nil
}

// Place runs the full placement phase of the paper.
func Place(d *netlist.Design, opts Options) (*Result, error) {
	// Split modules into preplaced and free.
	var free []*netlist.Module
	for _, m := range d.Modules {
		if _, pinned := opts.Fixed[m]; !pinned {
			free = append(free, m)
		}
	}

	parts := partition.PartitionSubset(d, free, partition.Config{
		MaxSize:        opts.PartSize,
		MaxConnections: opts.MaxConnections,
	})
	bxs := boxes.Form(d, parts, boxes.Config{MaxBoxSize: opts.BoxSize})

	// Module placement inside every box, then box placement inside
	// every partition, all in local coordinates.
	placedParts := make([]*placedPart, len(parts))
	for i, p := range parts {
		pp, err := placeOnePartition(p, bxs[i], opts)
		if err != nil {
			return nil, err
		}
		placedParts[i] = pp
	}

	// Partition placement in absolute coordinates, then composition.
	res := &Result{
		Design: d,
		Mods:   map[*netlist.Module]*PlacedModule{},
		SysPos: map[*netlist.Terminal]geom.Point{},
	}
	pinned := pinnedPartition(d, opts)
	placePartitions(placedParts, pinned, opts)

	if pinned != nil {
		for _, pm := range pinned.mods {
			res.Mods[pm.Mod] = pm
		}
	}
	for _, pp := range placedParts {
		placed := &PlacedPart{Part: pp.part}
		for _, pb := range pp.boxes {
			boxRect := geom.Rect{
				Min: pp.origin.Add(pb.origin),
				Max: pp.origin.Add(pb.origin).Add(pb.size),
			}
			placed.Boxes = append(placed.Boxes, &PlacedBox{Box: pb.box, Rect: boxRect})
			for _, pm := range pb.mods {
				abs := &PlacedModule{
					Mod:    pm.Mod,
					Pos:    pp.origin.Add(pb.origin).Add(pm.Pos),
					Orient: pm.Orient,
				}
				res.Mods[abs.Mod] = abs
			}
		}
		placed.Rect = geom.Rect{Min: pp.origin, Max: pp.origin.Add(pp.size)}
		res.Parts = append(res.Parts, placed)
	}

	res.ModuleBounds = moduleBounds(res)
	placeTerminals(res)
	res.Bounds = fullBounds(res)
	return res, nil
}

// moduleBounds computes the rectangle enclosing all module symbols.
func moduleBounds(r *Result) geom.Rect {
	var b geom.Rect
	first := true
	for _, pm := range r.Mods {
		if first {
			b, first = pm.Rect(), false
		} else {
			b = b.Union(pm.Rect())
		}
	}
	return b
}

func fullBounds(r *Result) geom.Rect {
	b := r.ModuleBounds
	for _, p := range r.SysPos {
		b = b.Union(geom.Rect{Min: p, Max: p.Add(geom.Pt(1, 1))})
	}
	return b
}

// spacing returns the white space the paper adds on one side of a
// module: the number of distinct connected nets on that side plus one,
// plus the user slack (Appendix E, -s).
func spacing(m *netlist.Module, o geom.Orient, side geom.Dir, slack int) int {
	seen := map[*netlist.Net]bool{}
	count := 0
	for _, t := range m.Terms {
		if t.Net == nil || seen[t.Net] {
			continue
		}
		orig, err := t.Side()
		if err != nil {
			continue
		}
		if o.RotateDir(orig) == side {
			seen[t.Net] = true
			count++
		}
	}
	return count + 1 + slack
}

// placedPart and placedBox are working structures in local coordinates.
type placedPart struct {
	part   *partition.Part
	boxes  []*placedBox
	size   geom.Point
	origin geom.Point // absolute, set by partition placement
	mods   []*PlacedModule
	fixed  bool // pinned preplaced pseudo partition
}

type placedBox struct {
	box    *boxes.Box
	mods   []*PlacedModule // positions local to the box (lower-left 0,0)
	size   geom.Point
	origin geom.Point // local to the partition, set by box placement
}

// placeOnePartition places every box's module string of one partition,
// then the boxes within the partition, all in local coordinates.
func placeOnePartition(p *partition.Part, bxs []*boxes.Box, opts Options) (*placedPart, error) {
	pp := &placedPart{part: p}
	for _, b := range bxs {
		if err := opts.Inject.Fire(resilience.SitePlaceBox); err != nil {
			return nil, fmt.Errorf("place: box placement: %w", err)
		}
		pb, err := placeBoxModules(b, opts)
		if err != nil {
			return nil, err
		}
		pp.boxes = append(pp.boxes, pb)
	}
	placeBoxesInPartition(pp, opts)
	return pp, nil
}

// placeBoxModules implements MODULE_PLACEMENT and PLACE_MODULE
// (§4.6.4) for one string: each module is rotated so the terminal
// connecting to its predecessor faces left, shifted vertically so at
// most two bends arise in the connecting net, and surrounded by white
// space proportional to its connected terminal count per side.
func placeBoxModules(b *boxes.Box, opts Options) (*placedBox, error) {
	slack := opts.ModSpacing
	mods := make([]*PlacedModule, 0, b.Len())

	head := b.Head()
	headOrient := geom.R0
	if b.Len() > 1 {
		tPrev, _, ok := boxes.StringNet(head, b.Modules[1])
		if !ok {
			return nil, fmt.Errorf("place: box string broken between %q and %q",
				head.Name, b.Modules[1].Name)
		}
		side, err := tPrev.Side()
		if err != nil {
			return nil, err
		}
		headOrient = geom.OrientTaking(side, geom.Right)
	}

	// INIT_MODULE_PLACEMENT.
	hx := spacing(head, headOrient, geom.Left, slack)
	hy := spacing(head, headOrient, geom.Down, slack)
	hw, hh := headOrient.RotateSize(head.W, head.H)
	prev := &PlacedModule{Mod: head, Pos: geom.Pt(hx, hy), Orient: headOrient}
	mods = append(mods, prev)
	left, down := 0, 0
	right := hx + hw + spacing(head, headOrient, geom.Right, slack)
	up := hy + hh + spacing(head, headOrient, geom.Up, slack)

	for i := 1; i < b.Len(); i++ {
		m := b.Modules[i]
		tPrev, tCur, ok := boxes.StringNet(prev.Mod, m)
		if !ok {
			return nil, fmt.Errorf("place: box string broken between %q and %q",
				prev.Mod.Name, m.Name)
		}
		curSide, err := tCur.Side()
		if err != nil {
			return nil, err
		}
		orient := geom.OrientTaking(curSide, geom.Left)

		prevTermPosLocal := prev.Orient.RotatePoint(tPrev.Pos, prev.Mod.W, prev.Mod.H)
		curTermPos := orient.RotatePoint(tCur.Pos, m.W, m.H)
		_, prevH := prev.Size()
		sidePrev := prev.TermSide(tPrev)

		var y int
		switch sidePrev {
		case geom.Right:
			y = prev.Pos.Y + prevTermPosLocal.Y - curTermPos.Y
		case geom.Up:
			y = prev.Pos.Y + prevTermPosLocal.Y - curTermPos.Y + 1
		case geom.Down:
			y = prev.Pos.Y - 1 - curTermPos.Y
		default: // left: route around the shorter way
			if prevH-prevTermPosLocal.Y > prevTermPosLocal.Y {
				y = prev.Pos.Y - 1 - curTermPos.Y
			} else {
				y = prev.Pos.Y + prevH + 1 - curTermPos.Y
			}
		}

		x := right + spacing(m, orient, geom.Left, slack)
		pm := &PlacedModule{Mod: m, Pos: geom.Pt(x, y), Orient: orient}
		mods = append(mods, pm)
		w, h := pm.Size()
		right = x + w + spacing(m, orient, geom.Right, slack)
		up = geom.Max(up, y+h+spacing(m, orient, geom.Up, slack))
		down = geom.Min(down, y-spacing(m, orient, geom.Down, slack))
		prev = pm
	}

	// Normalize to a (0,0) lower-left box frame (the paper's
	// translation-box correction).
	for _, pm := range mods {
		pm.Pos = pm.Pos.Sub(geom.Pt(left, down))
	}
	return &placedBox{
		box:  b,
		mods: mods,
		size: geom.Pt(right-left, up-down),
	}, nil
}
