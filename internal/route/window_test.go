package route

import (
	"fmt"
	"testing"

	"netart/internal/geom"
	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/workload"
)

// This file is the windowed≡full property battery. The bounded search
// windows of §5i (DESIGN.md) never change the artwork: the exactness
// ladder — retry with a wider window whenever a clipped
// escape could have beaten the found solution, ending at the full
// plane — guarantees the windowed router returns byte-identical wire
// geometry to an unbounded search. These tests enforce that guarantee
// for every built-in workload and 20 seeded random designs, under both
// net orderings, at the route level (segments, plane cells, failures)
// and through VerifyEquivalence (the routed geometry really realizes
// the netlist).

// assertWindowedEqualsFull routes the design twice — windowed (the
// default) and full-plane (noWindow) — and requires identical artwork,
// then machine-checks both results against the netlist.
func assertWindowedEqualsFull(t *testing.T, tag string, build func() *netlist.Design, po place.Options, ro Options) {
	t.Helper()
	ro.noWindow = false
	win := routeFresh(t, build, po, ro)
	full := ro
	full.noWindow = true
	fres := routeFresh(t, build, po, full)
	assertSameArtwork(t, tag, fres, win)
	if err := VerifyEquivalence(win); err != nil {
		t.Errorf("%s: windowed result fails equivalence: %v", tag, err)
	}
	if err := VerifyEquivalence(fres); err != nil {
		t.Errorf("%s: full-plane result fails equivalence: %v", tag, err)
	}
}

func TestWindowedMatchesFullWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		po    place.Options
		slow  bool
	}{
		{"fig61", workload.Fig61, place.Options{PartSize: 6, BoxSize: 6}, false},
		{"datapath", workload.Datapath16, place.Options{PartSize: 7, BoxSize: 5}, false},
		{"cpu", workload.CPU, place.Options{PartSize: 7, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 1}, false},
		{"life", workload.Life27, place.Options{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}, true},
	}
	for _, tc := range cases {
		for _, ord := range batteryOrders {
			t.Run(tc.name+"/"+ord.name, func(t *testing.T) {
				if tc.slow && testing.Short() {
					t.Skip("life battery skipped in -short mode")
				}
				ro := Options{Claimpoints: true, OrderShortestFirst: ord.shortest}
				assertWindowedEqualsFull(t, tc.name+"/"+ord.name, tc.build, tc.po, ro)
			})
		}
	}
}

// TestWindowedMatchesFullSeeded drives the property over 20 seeded
// random designs (the internal/workload generator), under the
// shortest-first default ordering.
func TestWindowedMatchesFullSeeded(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *netlist.Design { return workload.Random(12, seed) }
			po := place.Options{PartSize: 4, BoxSize: 2}
			ro := Options{Claimpoints: true, OrderShortestFirst: true}
			assertWindowedEqualsFull(t, fmt.Sprintf("seed%d", seed), build, po, ro)
		})
	}
}

// TestWindowLadderTerminates pins the window schedule's shape: rungs
// grow strictly, the last rung is always the full plane (the ladder's
// termination guarantee), and rungs within 3/4 of the next rung's area
// are pruned as not worth a retry.
func TestWindowLadderTerminates(t *testing.T) {
	full := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(499, 399)}
	rt := &router{plane: &Plane{Bounds: full}}
	cases := []struct {
		name string
		bbox geom.Rect
	}{
		{"tiny", geom.Rect{Min: geom.Pt(200, 200), Max: geom.Pt(205, 203)}},
		{"wide", geom.Rect{Min: geom.Pt(10, 180), Max: geom.Pt(490, 220)}},
		{"full", full},
		{"corner", geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(3, 3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rungs := rt.windows(tc.bbox)
			if len(rungs) == 0 {
				t.Fatal("empty window schedule")
			}
			last := rungs[len(rungs)-1]
			if last != full {
				t.Fatalf("last rung %v is not the full plane %v", last, full)
			}
			for i, r := range rungs {
				if !winContains(r, tc.bbox.Min) || !winContains(r, tc.bbox.Max) {
					t.Errorf("rung %d %v does not contain the terminal bbox %v", i, r, tc.bbox)
				}
				if i > 0 && winArea(r) <= winArea(rungs[i-1]) {
					t.Errorf("rung %d area %d does not grow over rung %d area %d",
						i, winArea(r), i-1, winArea(rungs[i-1]))
				}
				if i < len(rungs)-1 && winArea(r)*4 >= winArea(rungs[i+1])*3 {
					t.Errorf("rung %d area %d within 3/4 of next rung %d — should have been pruned",
						i, winArea(r), winArea(rungs[i+1]))
				}
			}
		})
	}
	t.Run("nowindow", func(t *testing.T) {
		rt := &router{plane: &Plane{Bounds: full}, opts: Options{noWindow: true}}
		rungs := rt.windows(geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(9, 9)})
		if len(rungs) != 1 || rungs[0] != full {
			t.Fatalf("noWindow schedule %v, want just the full plane", rungs)
		}
	})
}
