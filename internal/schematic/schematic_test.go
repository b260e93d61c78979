package schematic

import (
	"fmt"
	"strings"
	"testing"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/workload"
)

func buildDiagram(t *testing.T, d *netlist.Design, po place.Options, ro route.Options) *Diagram {
	t.Helper()
	pr, err := place.Place(d, po)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := route.Route(pr, ro)
	if err != nil {
		t.Fatal(err)
	}
	return FromRouting(rr)
}

func fig61Diagram(t *testing.T) *Diagram {
	return buildDiagram(t, workload.Fig61(),
		place.Options{PartSize: 6, BoxSize: 6},
		route.Options{Claimpoints: true})
}

func TestVerifyAcceptsGeneratedDiagram(t *testing.T) {
	dg := fig61Diagram(t)
	if err := dg.Verify(); err != nil {
		t.Fatalf("generated diagram rejected: %v", err)
	}
}

func TestVerifyDatapathVariants(t *testing.T) {
	for _, po := range []place.Options{
		{PartSize: 1, BoxSize: 1},
		{PartSize: 5, BoxSize: 1},
		{PartSize: 7, BoxSize: 5},
	} {
		dg := buildDiagram(t, workload.Datapath16(), po, route.Options{Claimpoints: true})
		if err := dg.Verify(); err != nil {
			t.Errorf("p=%d b=%d rejected: %v", po.PartSize, po.BoxSize, err)
		}
	}
}

func TestVerifyCatchesCorruptedNet(t *testing.T) {
	dg := fig61Diagram(t)
	// Corrupt one routed net: shift its segments by one, disconnecting
	// it from the terminals.
	for _, rn := range dg.Routing.Nets {
		if len(rn.Segments) == 0 {
			continue
		}
		for i := range rn.Segments {
			rn.Segments[i].A = rn.Segments[i].A.Add(geom.Pt(0, 1))
			rn.Segments[i].B = rn.Segments[i].B.Add(geom.Pt(0, 1))
		}
		break
	}
	if err := dg.Verify(); err == nil {
		t.Error("corrupted diagram accepted")
	}
}

func TestVerifyCatchesOverlap(t *testing.T) {
	dg := fig61Diagram(t)
	// Force two nets onto the same horizontal run.
	var first []route.Segment
	for _, rn := range dg.Routing.Nets {
		if len(rn.Segments) > 0 && first == nil {
			first = rn.Segments
			continue
		}
		if first != nil && len(rn.Segments) > 0 {
			rn.Segments = append(rn.Segments, first[0])
			break
		}
	}
	if err := dg.Verify(); err == nil {
		t.Error("overlapping nets accepted")
	}
}

func TestMetricsFig61(t *testing.T) {
	dg := fig61Diagram(t)
	m := dg.Metrics()
	if m.Unrouted != 0 {
		t.Errorf("unrouted = %d", m.Unrouted)
	}
	if m.WireLength <= 0 {
		t.Error("no wire length measured")
	}
	// A placed string should flow fully left to right.
	if m.FlowRight < 0.99 {
		t.Errorf("flow score %.2f, want ~1.0 for a string", m.FlowRight)
	}
	// The chain nets are straight or nearly so.
	if m.Bends > 12 {
		t.Errorf("too many bends for a string: %d", m.Bends)
	}
	if m.Area <= 0 {
		t.Error("area not computed")
	}
}

func TestMetricsCrossingsCounted(t *testing.T) {
	// Hand-build a crossing: two nets crossing at one point.
	d := netlist.NewDesign("x")
	mk := func(nm string, x, y int, ts ...netlist.TermSpec) {
		m, err := d.AddModule(nm, "", 2, 2, ts)
		if err != nil {
			t.Fatal(err)
		}
		_ = m
	}
	mk("A", 0, 0, netlist.TermSpec{Name: "Y", Type: netlist.Out, Pos: geom.Pt(2, 1)})
	mk("B", 0, 0, netlist.TermSpec{Name: "A", Type: netlist.In, Pos: geom.Pt(0, 1)})
	mk("C", 0, 0, netlist.TermSpec{Name: "Y", Type: netlist.Out, Pos: geom.Pt(1, 0)})
	mk("D", 0, 0, netlist.TermSpec{Name: "A", Type: netlist.In, Pos: geom.Pt(1, 2)})
	pr := &place.Result{
		Design: d,
		Mods: map[*netlist.Module]*place.PlacedModule{
			d.Module("A"): {Mod: d.Module("A"), Pos: geom.Pt(0, 4)},
			d.Module("B"): {Mod: d.Module("B"), Pos: geom.Pt(10, 4)},
			d.Module("C"): {Mod: d.Module("C"), Pos: geom.Pt(5, 10)},
			d.Module("D"): {Mod: d.Module("D"), Pos: geom.Pt(5, 0)},
		},
		SysPos: map[*netlist.Terminal]geom.Point{},
	}
	if err := d.Connect("h", "A", "Y"); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("h", "B", "A"); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("v", "C", "Y"); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect("v", "D", "A"); err != nil {
		t.Fatal(err)
	}
	var b geom.Rect
	first := true
	for _, pm := range pr.Mods {
		if first {
			b, first = pm.Rect(), false
		} else {
			b = b.Union(pm.Rect())
		}
	}
	pr.ModuleBounds, pr.Bounds = b, b
	rr, err := route.Route(pr, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dg := FromRouting(rr)
	if err := dg.Verify(); err != nil {
		t.Fatal(err)
	}
	m := dg.Metrics()
	if m.Crossings != 1 {
		t.Errorf("crossings = %d, want 1", m.Crossings)
	}
}

func TestMetricsBranchesOnFanout(t *testing.T) {
	// The datapath clock net has degree 8: its tree must contain
	// branching nodes.
	dg := buildDiagram(t, workload.Datapath16(),
		place.Options{PartSize: 5, BoxSize: 5}, route.Options{Claimpoints: true})
	m := dg.Metrics()
	if m.Branches == 0 {
		t.Error("no branching nodes despite multipoint nets")
	}
}

func TestPlacementOnlyMetrics(t *testing.T) {
	pr, err := place.Place(workload.Fig61(), place.Options{PartSize: 6, BoxSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	dg := FromPlacement(pr)
	m := dg.Metrics()
	if m.WireLength != 0 || m.Bends != 0 {
		t.Error("placement-only diagram has wire metrics")
	}
	if m.FlowRight < 0.99 {
		t.Errorf("flow score %.2f", m.FlowRight)
	}
	if err := dg.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestASCIIRender(t *testing.T) {
	dg := fig61Diagram(t)
	art := dg.ASCII()
	if !strings.Contains(art, "#") {
		t.Error("no module outlines in ASCII output")
	}
	if !strings.Contains(art, "-") && !strings.Contains(art, "|") {
		t.Error("no wires in ASCII output")
	}
	// m2 is an AND2 (3x3): wide enough for its two-character name.
	if !strings.Contains(art, "m2") {
		t.Error("no instance names in ASCII output")
	}
	if !strings.Contains(art, "O") {
		t.Error("no system terminal in ASCII output")
	}
}

func TestASCIITooLarge(t *testing.T) {
	pr := &place.Result{
		Design: netlist.NewDesign("big"),
		Mods:   map[*netlist.Module]*place.PlacedModule{},
		SysPos: map[*netlist.Terminal]geom.Point{},
		Bounds: geom.R(0, 0, 10000, 10000),
	}
	dg := FromPlacement(pr)
	if !strings.Contains(dg.ASCII(), "too large") {
		t.Error("oversized grid not degraded to summary")
	}
}

func TestSVGRender(t *testing.T) {
	dg := fig61Diagram(t)
	var sb strings.Builder
	if err := dg.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	for _, want := range []string{"<svg", "</svg>", "<rect", "<line", "m0"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestSummary(t *testing.T) {
	dg := fig61Diagram(t)
	s := dg.Summary()
	if !strings.Contains(s, "fig61") || !strings.Contains(s, "unrouted=0") {
		t.Errorf("summary = %q", s)
	}
}

func TestSegmentsOf(t *testing.T) {
	dg := fig61Diagram(t)
	if segs := dg.SegmentsOf("n1"); len(segs) == 0 {
		t.Error("no segments for routed net n1")
	}
	if segs := dg.SegmentsOf("nope"); segs != nil {
		t.Error("segments for unknown net")
	}
	if segs := FromPlacement(dg.Placement).SegmentsOf("n1"); segs != nil {
		t.Error("segments from placement-only diagram")
	}
}

func TestVerifyCatchesWireInModuleInterior(t *testing.T) {
	dg := fig61Diagram(t)
	// A run across the middle row of the first module at least three
	// points tall and wide, prepended to a routed net: only its
	// interior points are touched, so the interior check must fire.
	var mod *netlist.Module
	var r geom.Rect
	for _, m := range dg.Design.Modules {
		if r = dg.Placement.Mods[m].Rect(); r.Dx() >= 2 && r.Dy() >= 2 {
			mod = m
			break
		}
	}
	if mod == nil {
		t.Fatal("fig61 has no module with an interior")
	}
	cy := (r.Min.Y + r.Max.Y) / 2
	run := route.Segment{A: geom.Pt(r.Min.X+1, cy), B: geom.Pt(r.Max.X-1, cy)}
	var rn *route.RoutedNet
	for _, n := range dg.Routing.Nets {
		if len(n.Segments) > 0 {
			rn = n
			break
		}
	}
	rn.Segments = append([]route.Segment{run}, rn.Segments...)
	err := dg.Verify()
	want := fmt.Sprintf("schematic: net %q enters module %q at %v", rn.Net.Name, mod.Name, run.A)
	if err == nil || err.Error() != want {
		t.Fatalf("Verify = %v, want %q", err, want)
	}
}

func TestSVGEscapesNames(t *testing.T) {
	dg := fig61Diagram(t)
	dg.Design.Modules[0].Name = `m&<0>"`
	var rn *route.RoutedNet
	for _, n := range dg.Routing.Nets {
		if len(n.Segments) > 0 {
			rn = n
			break
		}
	}
	rn.Net.Name = `n&<1>"`
	var sb strings.Builder
	if err := dg.WriteSVG(&sb); err != nil {
		t.Fatal(err)
	}
	svg := sb.String()
	for _, want := range []string{
		`>m&amp;&lt;0&gt;&quot;</text>`,
		`<title>n&amp;&lt;1&gt;&quot;</title>`,
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing escaped name %q", want)
		}
	}
	for _, raw := range []string{`m&<0>"`, `n&<1>"`} {
		if strings.Contains(svg, raw) {
			t.Errorf("SVG holds the unescaped name %q", raw)
		}
	}
}
