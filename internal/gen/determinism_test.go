package gen

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/route"
	"netart/internal/workload"
)

// This file is the rendered-output half of the determinism battery:
// the full pipeline — placement, routing, schematic build, ASCII and
// SVG rendering — run concurrently on separate goroutines, the way
// netartd's worker pool runs requests, must produce artwork
// byte-identical to a sequential run, under both net orderings. The
// router-internal half (segments, plane cells, stats, windowed vs
// full-plane) lives in internal/route/determinism_test.go; this half
// proves no divergence hides in the layers above the router.

// renderPair runs the pipeline and returns the ASCII and SVG bytes.
// Every battery run also passes the geometry-level equivalence check:
// the wires must realize the netlist, not just match another run.
func renderPair(d *netlist.Design, opts Options) (string, string, error) {
	rep, err := Run(context.Background(), d, opts)
	if err != nil {
		return "", "", err
	}
	if err := route.VerifyEquivalence(rep.Routing); err != nil {
		return "", "", err
	}
	var svg strings.Builder
	if err := rep.Diagram.WriteSVG(&svg); err != nil {
		return "", "", err
	}
	return rep.Diagram.ASCII(), svg.String(), nil
}

// renderConcurrency is the number of pipelines the battery runs at once.
const renderConcurrency = 2

// assertConcurrentRender renders the design sequentially under both
// net orderings, then renderConcurrency more times at once per
// ordering, and requires byte-identical ASCII and SVG.
func assertConcurrentRender(t *testing.T, build func() *netlist.Design, opts Options) {
	t.Helper()
	for _, shortest := range []bool{false, true} {
		o := opts
		o.Route.OrderShortestFirst = shortest
		seqASCII, seqSVG, err := renderPair(build(), o)
		if err != nil {
			t.Fatalf("shortest=%t: %v", shortest, err)
		}
		type out struct {
			ascii, svg string
			err        error
		}
		outs := make([]out, renderConcurrency)
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				a, s, err := renderPair(build(), o)
				outs[i] = out{a, s, err}
			}(i)
		}
		wg.Wait()
		for i, r := range outs {
			switch {
			case r.err != nil:
				t.Errorf("shortest=%t concurrent#%d: %v", shortest, i, r.err)
			case r.ascii != seqASCII:
				t.Errorf("shortest=%t concurrent#%d: ASCII rendering diverges from sequential", shortest, i)
			case r.svg != seqSVG:
				t.Errorf("shortest=%t concurrent#%d: SVG rendering diverges from sequential", shortest, i)
			}
		}
	}
}

func TestRenderedOutputDeterministicWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		opts  Options
		slow  bool
	}{
		{"fig61", workload.Fig61,
			Options{Place: place.Options{PartSize: 6, BoxSize: 6},
				Route: route.Options{Claimpoints: true}}, false},
		{"datapath", workload.Datapath16, DefaultOptions(), false},
		{"life", workload.Life27,
			Options{Place: place.Options{PartSize: 5, BoxSize: 5,
				ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3},
				Route: route.Options{Claimpoints: true}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("life battery skipped in -short mode")
			}
			assertConcurrentRender(t, tc.build, tc.opts)
		})
	}
}

// TestRenderedOutputDeterministicPlaceWorkers is the placement-only
// twin of the battery above: only the placements run concurrently;
// each is then routed and rendered sequentially, so a divergence
// localizes to placement.
func TestRenderedOutputDeterministicPlaceWorkers(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		opts  Options
	}{
		{"quickstart", workload.Quickstart,
			Options{Place: place.Options{PartSize: 4, BoxSize: 4},
				Route: route.Options{Claimpoints: true}}},
		{"datapath", workload.Datapath16, DefaultOptions()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqASCII, seqSVG, err := renderPair(tc.build(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			placed := make([]*place.Result, renderConcurrency)
			errs := make([]error, renderConcurrency)
			var wg sync.WaitGroup
			for i := range placed {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					placed[i], errs[i] = place.Place(tc.build(), tc.opts.Place)
				}(i)
			}
			wg.Wait()
			for i, pr := range placed {
				if errs[i] != nil {
					t.Fatalf("concurrent#%d: %v", i, errs[i])
				}
				o := tc.opts
				o.Placement = pr
				a, s, err := renderPair(nil, o)
				if err != nil {
					t.Fatalf("concurrent#%d: %v", i, err)
				}
				if a != seqASCII || s != seqSVG {
					t.Errorf("concurrent#%d: rendered output diverges from sequential", i)
				}
			}
		})
	}
}

// TestRenderedOutputDeterministicSeeded sweeps seeded random designs
// through concurrent and sequential pipelines.
func TestRenderedOutputDeterministicSeeded(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *netlist.Design { return workload.Random(12, seed) }
			opts := Options{Place: place.Options{PartSize: 4, BoxSize: 2},
				Route: route.Options{Claimpoints: true}}
			assertConcurrentRender(t, build, opts)
		})
	}
}
