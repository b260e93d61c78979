package route

import (
	"context"
	"fmt"
	"testing"

	"netart/internal/geom"
)

// FuzzWindowedMatchesFull is the property test of the windowed search
// ladder and the reused search arena. Over an arbitrary obstacle field,
// several point-to-point nets are routed and laid in sequence twice:
// once by a windowed router whose single searchArena serves every
// search (epochs bumped, slabs and buffers reused), and once by a
// full-plane router that starts every search on a fresh arena. Both
// must find the same segments for every net and leave identical
// planes: windows and arena reuse may change how much is swept, never
// what is found.

// fuzzSearch runs the window ladder for a single point-to-point net,
// mirroring router.search without the netlist scaffolding.
func fuzzSearch(rt *router, id int32, from, to geom.Point) ([]Segment, bool) {
	target := func(p geom.Point) bool { return p == to }
	dirs := []geom.Dir{geom.Right, geom.Up, geom.Left, geom.Down}
	bbox := boxAdd(ptBox(from), to)
	wins := rt.windows(bbox)
	for wi, win := range wins {
		if wi > 0 {
			rt.stats.Widened++
		}
		segs, ok, exact := rt.searchIn(win, bbox, id, from, dirs, target, []geom.Point{to}, nil)
		if exact || wi == len(wins)-1 {
			return segs, ok
		}
	}
	return nil, false
}

// fuzzRouteAll routes every terminal pair in order, laying each found
// path, and returns one outcome line per net (segments or LayWire
// error) for cross-run comparison. freshArena drops the router's arena
// before every search.
func fuzzRouteAll(rt *router, pairs [][2]geom.Point, freshArena bool) []string {
	var out []string
	for i, pr := range pairs {
		if freshArena {
			rt.ar = nil
		}
		id := int32(i) + 1
		segs, ok := fuzzSearch(rt, id, pr[0], pr[1])
		if !ok {
			out = append(out, "unrouted")
			continue
		}
		err := rt.plane.LayWire(id, segs)
		out = append(out, fmt.Sprintf("%v lay=%v", segs, err))
	}
	return out
}

func FuzzWindowedMatchesFull(f *testing.F) {
	f.Add(uint8(48), uint8(40), []byte{2, 2, 40, 30, 10, 28, 35, 5, 20, 20, 21, 20, 22, 20, 23, 20})
	f.Add(uint8(70), uint8(16), []byte{0, 0, 60, 10, 5, 5, 5, 6, 6, 5, 7, 7})
	f.Add(uint8(16), uint8(16), []byte{1, 1, 1, 1})
	// A 120×60 plane where net 1 (20,30)→(40,30) finds a 4-bend path
	// through staggered wall gaps inside its first window, while the
	// minimum is a 2-bend detour below the walls, outside that window:
	// the windowed outcome is inexact and must widen.
	f.Add(uint8(104), uint8(44), []byte{
		20, 30, 40, 30, 100, 50, 104, 50, 100, 5, 104, 5,
		28, 5, 37, 28, 16, 157, 32, 5, 157, 32, 46, 37})
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		width := int(w%128) + 16
		height := int(h%128) + 16
		bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(width-1, height-1)}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		pt := func() geom.Point { a, b := next(), next(); return geom.Pt(int(a)%width, int(b)%height) }

		// Three point-to-point nets, then the remaining bytes lay walls:
		// a start point and a length of up to 63 points along one axis,
		// long enough to push minimum-bend paths out of a window
		// (terminals are skipped so the nets stay plausible).
		pairs := [][2]geom.Point{{pt(), pt()}, {pt(), pt()}, {pt(), pt()}}
		isTerm := func(p geom.Point) bool {
			for _, pr := range pairs {
				if p == pr[0] || p == pr[1] {
					return true
				}
			}
			return false
		}
		var blocks []geom.Point
		for n := 0; n < 40 && len(data) >= 3; n++ {
			p, l := pt(), int(next())
			d := geom.Pt(1, 0)
			if l&1 != 0 {
				d = geom.Pt(0, 1)
			}
			for k := 0; k <= l>>2; k++ {
				if !isTerm(p) {
					blocks = append(blocks, p)
				}
				p = p.Add(d)
			}
		}
		newRT := func(noWindow bool) *router {
			pl := NewPlane(bounds)
			for _, p := range blocks {
				pl.BlockPoint(p) // ignores points past the border
			}
			return &router{plane: pl, opts: Options{noWindow: noWindow},
				cancel: newCancelCheck(context.Background()), stats: &SearchStats{}}
		}

		win := newRT(false)
		winOut := fuzzRouteAll(win, pairs, false)
		full := newRT(true)
		fullOut := fuzzRouteAll(full, pairs, true)

		if fmt.Sprint(winOut) != fmt.Sprint(fullOut) {
			t.Fatalf("windowed outcomes diverge from full-plane:\n  full %v\n  win  %v", fullOut, winOut)
		}
		if !win.plane.Equal(full.plane) {
			t.Fatal("windowed plane diverges from full-plane reference")
		}
		if win.stats.Searches < full.stats.Searches {
			t.Fatalf("windowed ladder ran %d searches, fewer than the %d full-plane ones",
				win.stats.Searches, full.stats.Searches)
		}
	})
}
