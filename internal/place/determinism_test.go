package place

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"netart/internal/netlist"
	"netart/internal/workload"
)

// This file is the placement half of the determinism battery, the twin
// of internal/route/determinism_test.go: placements run concurrently on
// separate goroutines — the way netartd's worker pool runs requests —
// must be byte-identical to a sequential placement of the same input,
// on the named workloads and across a sweep of seeded random designs.
// ci.sh runs this battery under -race, so shared mutable state between
// placements fails the build even when the output happens to match.

// placeConcurrency is the number of placements the battery runs at once.
const placeConcurrency = 2

// fingerprint serializes every Result field: module positions and
// orientations in design order, system-terminal positions, partition
// and box rectangles, and the two bounding boxes.
func fingerprint(r *Result) string {
	var b strings.Builder
	for _, m := range r.Design.Modules {
		pm := r.Mods[m]
		if pm == nil {
			fmt.Fprintf(&b, "mod %s unplaced\n", m.Name)
			continue
		}
		fmt.Fprintf(&b, "mod %s pos=%v orient=%v\n", m.Name, pm.Pos, pm.Orient)
	}
	for _, t := range r.Design.SysTerms {
		fmt.Fprintf(&b, "sys %s pos=%v\n", t.Name, r.SysPos[t])
	}
	for i, pp := range r.Parts {
		fmt.Fprintf(&b, "part %d rect=%v mods=%d\n", i, pp.Rect, len(pp.Part.Modules))
		for j, pb := range pp.Boxes {
			fmt.Fprintf(&b, "part %d box %d rect=%v size=%d\n", i, j, pb.Rect, len(pb.Box.Modules))
		}
	}
	fmt.Fprintf(&b, "modbounds=%v bounds=%v\n", r.ModuleBounds, r.Bounds)
	return b.String()
}

// assertConcurrentPlacement places the design sequentially, then
// placeConcurrency more times at once, and requires every concurrent
// fingerprint to equal the sequential one.
func assertConcurrentPlacement(t *testing.T, build func() *netlist.Design, opts Options) {
	t.Helper()
	seqRes, err := Place(build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	seq := fingerprint(seqRes)
	got := make([]string, placeConcurrency)
	errs := make([]error, placeConcurrency)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := Place(build(), opts)
			if err == nil {
				got[i] = fingerprint(r)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent#%d: %v", i, errs[i])
		}
		if got[i] != seq {
			t.Errorf("concurrent#%d: placement diverges from sequential\n%s", i, firstDiffLine(seq, got[i]))
		}
	}
}

func TestParallelPlacementDeterministicWorkloads(t *testing.T) {
	cases := []struct {
		name  string
		build func() *netlist.Design
		opts  Options
	}{
		{"fig61", workload.Fig61, Options{PartSize: 6, BoxSize: 6}},
		{"quickstart", workload.Quickstart, Options{PartSize: 4, BoxSize: 4}},
		{"datapath", workload.Datapath16, Options{PartSize: 7, BoxSize: 5}},
		{"cpu", workload.CPU, Options{PartSize: 7, BoxSize: 5, ModSpacing: 1, BoxSpacing: 1}},
		{"life", workload.Life27, Options{PartSize: 5, BoxSize: 5,
			ModSpacing: 1, BoxSpacing: 2, PartSpacing: 3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "life" && testing.Short() {
				t.Skip("life battery skipped in -short mode")
			}
			assertConcurrentPlacement(t, tc.build, tc.opts)
		})
	}
}

// TestParallelPlacementDeterministicSeeded sweeps seeded random designs
// through concurrent and sequential placement.
func TestParallelPlacementDeterministicSeeded(t *testing.T) {
	seeds := int64(20)
	if testing.Short() {
		seeds = 5
	}
	opts := Options{PartSize: 4, BoxSize: 2}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			assertConcurrentPlacement(t, func() *netlist.Design { return workload.Random(12, seed) }, opts)
		})
	}
}

// firstDiffLine locates the first diverging fingerprint line.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("first divergence at line %d:\n  seq: %s\n  got: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
}
