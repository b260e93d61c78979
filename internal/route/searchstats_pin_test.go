package route

import (
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/workload"
)

// TestSearchStatsPinned is the deterministic counter gate of the router
// at unit-test scale: the exact search work (SearchStats) and unrouted
// count of three built-in workloads at the pipeline's default options
// (gen.DefaultOptions: p=7 b=5, claimpoints, shortest-first), both
// windowed and through the full-plane reference path. The counters do
// not depend on the host, so any change to them is a change to the
// algorithm. A change that moves a number must update the pin and say
// why; the windowed/full pair records what the search windows save (or
// cost) on each workload.
func TestSearchStatsPinned(t *testing.T) {
	type pin struct {
		stats    SearchStats
		unrouted int
	}
	cases := []struct {
		name      string
		build     func() *netlist.Design
		win, full pin
	}{
		{"fig61", workload.Fig61,
			pin{SearchStats{Searches: 7, Waves: 15, Actives: 87, Cells: 3572, MaxBends: 4, Widened: 1}, 0},
			pin{SearchStats{Searches: 6, Waves: 11, Actives: 71, Cells: 2923, MaxBends: 4}, 0}},
		{"datapath", workload.Datapath16,
			pin{SearchStats{Searches: 44, Waves: 108, Actives: 1686, Cells: 78077, MaxBends: 4, Widened: 8}, 0},
			pin{SearchStats{Searches: 36, Waves: 88, Actives: 1562, Cells: 85270, MaxBends: 4}, 0}},
		{"life", workload.Life27,
			pin{SearchStats{Searches: 443, Waves: 1931, Actives: 332554, Cells: 7253453, MaxBends: 13, Widened: 180}, 10},
			pin{SearchStats{Searches: 263, Waves: 1415, Actives: 326366, Cells: 7154889, MaxBends: 13}, 10}},
	}
	po := place.Options{PartSize: 7, BoxSize: 5}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range []struct {
				name     string
				noWindow bool
				want     pin
			}{{"window", false, tc.win}, {"full", true, tc.full}} {
				res := routeFresh(t, tc.build, po,
					Options{Claimpoints: true, OrderShortestFirst: true, noWindow: mode.noWindow})
				got := pin{res.Stats, res.UnroutedCount()}
				if got != mode.want {
					t.Errorf("%s: got %#v, pinned %#v", mode.name, got, mode.want)
				}
			}
		})
	}
}
