package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"

	"netart/internal/gen"
	"netart/internal/library"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/schematic"
)

// reference is what the in-process pipeline derives for one design:
// the rendering netartd must have served, plus the diagram quality and
// the per-layer work counts.
type reference struct {
	outHash   [32]byte // the rendering in the workload's format
	litHash   [32]byte // the same as the JSON string literal netartd's handlers write
	modules   int
	nets      int
	unrouted  int
	bends     int
	crossings int
	search    map[string]float64 // route.SearchStats by JSON name
	parts     int
	boxes     int
}

// searchCounts reads route.SearchStats through its JSON names, so a
// counter a later change removes reads as 0 instead of breaking the
// build of the benchmark.
func searchCounts(st route.SearchStats) map[string]float64 {
	out := map[string]float64{}
	b, err := json.Marshal(st)
	if err == nil {
		_ = json.Unmarshal(b, &out) // every field is a number
	}
	return out
}

// runReference pushes one design through the layers netartd's default
// configuration runs (netlist.Load → place.Place → route.RouteCtx →
// schematic.FromRouting → WriteSVG, plus Metrics), then checks the
// result with route.VerifyEquivalence, schematic.Verify and
// place.VerifyBoxes. The SVG is always rendered; format "ascii" also
// renders the ASCII art, which is then the output to compare. Each call
// is wrapped in a span when tr is non-nil.
func runReference(ctx context.Context, tr *Tracer, lib *library.Library, d Design, format string) (*reference, error) {
	opts := gen.DefaultOptions()
	root := tr.Start("pipeline", d.ID, 0)

	sp := tr.Start("netlist.load", d.ID, root)
	design, err := netlist.Load(d.ID, strings.NewReader(d.Calls), strings.NewReader(d.Netlist),
		strings.NewReader(d.IO), lib)
	if err == nil {
		err = design.Validate(1)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: load: %w", d.ID, err)
	}
	tr.End(sp, map[string]float64{"modules": float64(len(design.Modules)), "nets": float64(len(design.Nets))})

	sp = tr.Start("place", d.ID, root)
	pr, err := place.Place(design, opts.Place)
	if err != nil {
		return nil, fmt.Errorf("%s: place: %w", d.ID, err)
	}
	ref := &reference{modules: len(design.Modules), nets: len(design.Nets), parts: len(pr.Parts)}
	for _, pp := range pr.Parts {
		ref.boxes += len(pp.Boxes)
	}
	tr.End(sp, map[string]float64{"modules": float64(ref.modules),
		"partitions": float64(ref.parts), "boxes": float64(ref.boxes)})

	sp = tr.Start("route", d.ID, root)
	rr, err := route.RouteCtx(ctx, pr, opts.Route)
	if err != nil {
		return nil, fmt.Errorf("%s: route: %w", d.ID, err)
	}
	ref.search = searchCounts(rr.Stats)
	ref.unrouted = rr.UnroutedCount()
	counts := map[string]float64{"unrouted": float64(ref.unrouted), "nets": float64(ref.nets),
		"modules": float64(ref.modules)}
	for k, v := range ref.search {
		counts[k] = v
	}
	tr.End(sp, counts)

	sp = tr.Start("schematic.build", d.ID, root)
	dg := schematic.FromRouting(rr)
	tr.End(sp, nil)

	sp = tr.Start("schematic.svg", d.ID, root)
	var svg strings.Builder
	if err := dg.WriteSVG(&svg); err != nil {
		return nil, fmt.Errorf("%s: svg: %w", d.ID, err)
	}
	tr.End(sp, map[string]float64{"bytes": float64(svg.Len())})
	out := svg.String()
	if format == "ascii" {
		sp = tr.Start("schematic.ascii", d.ID, root)
		out = dg.ASCII()
		tr.End(sp, map[string]float64{"bytes": float64(len(out))})
	}
	ref.outHash = sha256.Sum256([]byte(out))
	var lit bytes.Buffer
	enc := json.NewEncoder(&lit)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	ref.litHash = sha256.Sum256(bytes.TrimSuffix(lit.Bytes(), []byte("\n")))

	sp = tr.Start("schematic.metrics", d.ID, root)
	m := dg.Metrics()
	tr.End(sp, nil)
	ref.bends, ref.crossings = m.Bends, m.Crossings
	tr.End(root, nil)

	vroot := tr.Start("verify", d.ID, 0)
	sp = tr.Start("verify.equiv", d.ID, vroot)
	if err := route.VerifyEquivalence(rr); err != nil {
		return nil, fmt.Errorf("%s: routing equivalence: %w", d.ID, err)
	}
	tr.End(sp, nil)
	sp = tr.Start("verify.schematic", d.ID, vroot)
	if err := dg.Verify(); err != nil {
		return nil, fmt.Errorf("%s: schematic: %w", d.ID, err)
	}
	tr.End(sp, nil)
	sp = tr.Start("verify.boxes", d.ID, vroot)
	if err := pr.VerifyBoxes(opts.Place); err != nil {
		return nil, fmt.Errorf("%s: boxes: %w", d.ID, err)
	}
	tr.End(sp, nil)
	tr.End(vroot, nil)
	return ref, nil
}
