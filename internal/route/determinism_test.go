package route

import (
	"fmt"
	"sync"
	"testing"

	"netart/internal/netlist"
	"netart/internal/place"
	"netart/internal/workload"
)

// This file is the router half of the determinism battery: routes run
// concurrently on separate goroutines — the way netartd's worker pool
// runs requests — must produce results byte-identical to a sequential
// route of the same input: same segments, same failures, same plane
// cell state, same search statistics. Under -race it also proves that
// independent routers share no mutable state. Every battery result
// passes VerifyEquivalence. The rendered-output half (ASCII + SVG byte
// equality through the full pipeline) lives in internal/gen.

// assertSameResult compares every observable field of two routing
// results.
func assertSameResult(t *testing.T, tag string, seq, par *Result) {
	t.Helper()
	if seq.Stats != par.Stats {
		t.Errorf("%s: stats diverge:\n  seq %+v\n  par %+v", tag, seq.Stats, par.Stats)
	}
	assertSameArtwork(t, tag, seq, par)
}

// assertSameArtwork compares the routed artwork — wire geometry, plane
// cell state, failures — but not the search statistics: windowed and
// full-plane searches sweep different cell counts on the way to the
// same result.
func assertSameArtwork(t *testing.T, tag string, seq, par *Result) {
	t.Helper()
	if !seq.Plane.Equal(par.Plane) {
		t.Errorf("%s: plane cell state diverges", tag)
	}
	if seq.UnroutedCount() != par.UnroutedCount() {
		t.Errorf("%s: unrouted %d (seq) vs %d (par)", tag, seq.UnroutedCount(), par.UnroutedCount())
	}
	if len(seq.Nets) != len(par.Nets) {
		t.Fatalf("%s: net count %d vs %d", tag, len(seq.Nets), len(par.Nets))
	}
	for i := range seq.Nets {
		sn, pn := seq.Nets[i], par.Nets[i]
		if sn.Net.Name != pn.Net.Name {
			t.Fatalf("%s: net order diverges at %d: %s vs %s", tag, i, sn.Net.Name, pn.Net.Name)
		}
		if len(sn.Segments) != len(pn.Segments) {
			t.Errorf("%s: net %s: %d vs %d segments", tag, sn.Net.Name, len(sn.Segments), len(pn.Segments))
			continue
		}
		for j := range sn.Segments {
			if sn.Segments[j] != pn.Segments[j] {
				t.Errorf("%s: net %s: segment %d %v vs %v", tag, sn.Net.Name, j, sn.Segments[j], pn.Segments[j])
				break
			}
		}
		if len(sn.Failed) != len(pn.Failed) {
			t.Errorf("%s: net %s: %d vs %d failed terminals", tag, sn.Net.Name, len(sn.Failed), len(pn.Failed))
			continue
		}
		for j := range sn.Failed {
			if sn.Failed[j].Label() != pn.Failed[j].Label() {
				t.Errorf("%s: net %s: failed terminal %d %s vs %s",
					tag, sn.Net.Name, j, sn.Failed[j].Label(), pn.Failed[j].Label())
			}
		}
	}
}

// routeFresh builds the design and placement from scratch and routes
// it: each run must be fully independent so concurrent runs cannot see
// each other's state through shared structures.
func routeFresh(t *testing.T, build func() *netlist.Design, po place.Options, ro Options) *Result {
	t.Helper()
	pr, err := place.Place(build(), po)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(pr, ro)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// batteryConcurrency is the number of routes the battery runs at once.
const batteryConcurrency = 2

// routeConcurrently runs batteryConcurrency independent place-and-route
// passes of the same input at once and returns their results.
func routeConcurrently(t *testing.T, build func() *netlist.Design, po place.Options, ro Options) []*Result {
	t.Helper()
	res := make([]*Result, batteryConcurrency)
	errs := make([]error, batteryConcurrency)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr, err := place.Place(build(), po)
			if err == nil {
				res[i], err = Route(pr, ro)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return res
}

// assertConcurrentMatches routes the input sequentially, checks the
// result against the netlist, then requires every concurrent route of
// the same input to reproduce it exactly. It returns the sequential
// result.
func assertConcurrentMatches(t *testing.T, tag string, build func() *netlist.Design, po place.Options, ro Options) *Result {
	t.Helper()
	seq := routeFresh(t, build, po, ro)
	if err := VerifyEquivalence(seq); err != nil {
		t.Errorf("%s: %v", tag, err)
	}
	for i, par := range routeConcurrently(t, build, po, ro) {
		assertSameResult(t, fmt.Sprintf("%s concurrent#%d", tag, i), seq, par)
	}
	return seq
}

// batteryOrders and batteryWindows span the determinism matrix:
// {design, shortest-first} net ordering × {windowed, full-plane}
// search.
var batteryOrders = []struct {
	name     string
	shortest bool
}{
	{"design", false},
	{"shortest", true},
}

var batteryWindows = []struct {
	name     string
	noWindow bool
}{
	{"window", false},
	{"full", true},
}

func TestParallelMatchesSequentialWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		po    place.Options
		slow  bool
	}{
		{"fig61", workload.Fig61, place.Options{PartSize: 6, BoxSize: 6}, false},
		{"datapath", workload.Datapath16, place.Options{PartSize: 7, BoxSize: 5}, false},
		{"life", workload.Life27, place.Options{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}, true},
	}
	for _, tc := range cases {
		for _, ord := range batteryOrders {
			t.Run(tc.name+"/"+ord.name, func(t *testing.T) {
				if tc.slow && testing.Short() {
					t.Skip("life battery skipped in -short mode")
				}
				// One sequential baseline per window setting; the two
				// baselines must agree on the artwork (the windowed≡full
				// battery in window_test.go owns the exhaustive version
				// of that property).
				var baseline [2]*Result
				for wi, win := range batteryWindows {
					ro := Options{Claimpoints: true, OrderShortestFirst: ord.shortest, noWindow: win.noWindow}
					baseline[wi] = assertConcurrentMatches(t,
						tc.name+"/"+ord.name+"/"+win.name, tc.build, tc.po, ro)
				}
				assertSameArtwork(t, tc.name+"/"+ord.name+"/window-vs-full", baseline[0], baseline[1])
			})
		}
	}
}

// TestParallelMatchesSequentialOptionMatrix exercises concurrent routes
// under every router feature that interacts with the plane state:
// claimpoint release, shortest-first ordering, the rip-up pass, the
// dual-front engine and the Lee baseline.
func TestParallelMatchesSequentialOptionMatrix(t *testing.T) {
	variants := []struct {
		name string
		ro   Options
	}{
		{"plain", Options{}},
		{"claims", Options{Claimpoints: true}},
		{"shortest", Options{Claimpoints: true, OrderShortestFirst: true}},
		{"ripup", Options{Claimpoints: true, RipUp: true}},
		{"dualfront", Options{Claimpoints: true, DualFront: true}},
		{"swap", Options{Claimpoints: true, SwapObjective: true}},
		{"lee", Options{Claimpoints: true, Algorithm: AlgoLee}},
	}
	po := place.Options{PartSize: 5, BoxSize: 1}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			assertConcurrentMatches(t, v.name, workload.Datapath16, po, v.ro)
		})
	}
}

// TestParallelMatchesSequentialSeeded routes 20 seeded random designs
// (the internal/workload generator) concurrently and sequentially.
func TestParallelMatchesSequentialSeeded(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			build := func() *netlist.Design { return workload.Random(12, seed) }
			po := place.Options{PartSize: 4, BoxSize: 2}
			assertConcurrentMatches(t, fmt.Sprintf("seed%d", seed), build, po, Options{Claimpoints: true})
		})
	}
}
