package route

import (
	"fmt"
	"strings"
	"testing"

	"netart/internal/geom"
)

// FuzzFinalProbeMatchesFullWave checks the final-wave probe of run
// against fullWaveRun, the wave loop that sweeps every escape of every
// wave, the final one included. Over an arbitrary plane (walls, foreign
// wires and claimpoints), several nets are searched toward a hint point
// and a multi-segment tree of their own, each through a random window.
// The engine under test reuses one arena across the searches, as the
// router does; the reference gets a fresh arena per search. Both must
// collect the same solutions in the same order, choose the same path,
// agree on exactness and process the same waves and actives. Every
// search is run twice: with the target set as arena marks (setTargets)
// and with the same set as a closure predicate.

// fullWaveRun is run without the final-wave probe: each wave is swept
// in full, and the wave whose sweep collected solutions is the final
// one.
func (s *lineSearch) fullWaveRun(starts []*active) ([]Segment, bool) {
	if len(starts) == 0 {
		return nil, false
	}
	for _, a := range starts {
		for i := a.iv.Lo; i <= a.iv.Hi; i++ {
			p := a.pt(i, a.index)
			if s.pl.InBounds(p) {
				s.ar.markStart(s.pl.idx(p))
			}
		}
	}
	wave := starts
	bends := 0
	for len(wave) > 0 {
		if bends >= s.clipWave+2 {
			return nil, false
		}
		if s.cancel.poll() {
			return nil, false
		}
		s.stats.addWave()
		next := s.ar.waves[bends&1][:0]
		for _, a := range wave {
			s.stats.addActive()
			next, _ = s.expand(a, next, sweepExpand)
		}
		s.ar.waves[bends&1] = next[:0]
		if len(s.sols) > 0 {
			s.solWave = bends
			return cleanSegments(s.best().segs), true
		}
		wave = next
		bends++
	}
	return nil, false
}

// solutionsKey renders a search's solutions in found order, with each
// contact's originating active, for comparison across arenas.
func solutionsKey(sols []solution) string {
	var sb strings.Builder
	for _, s := range sols {
		fmt.Fprintf(&sb, "[%v %d %v b%d c%d @%d,%d cross=%d len=%d %v]",
			s.a.dir, s.a.index, s.a.iv, s.a.bends, s.a.cross, s.i, s.j, s.cross, s.length, s.segs)
	}
	return sb.String()
}

func FuzzFinalProbeMatchesFullWave(f *testing.F) {
	// Seeds drawn by a random search for inputs whose three searches
	// all run three or more waves and together collect many solutions;
	// the first and last planes are wider than 64 points, so their rows
	// span several bitboard words.
	f.Add(uint8(83), uint8(248), []byte{42, 97, 111, 1, 93, 0, 27, 106, 143, 191, 213, 141, 108, 106, 16, 147, 107, 249, 172, 128, 227, 53, 71, 220, 207, 145, 241, 113, 114, 223, 132, 137, 236, 83, 119, 17, 155, 73, 25, 47, 1, 157, 199, 133, 250, 37, 203, 210, 18, 188, 98, 210, 85, 73, 181, 233, 27, 207, 59, 198, 62, 144, 188, 230, 65, 60, 40, 168, 30, 22, 254, 41, 106, 254, 143, 17, 237, 235, 80, 73, 122, 204, 18, 113, 44, 165, 55, 130, 42, 41, 229, 232, 117, 245, 29, 135, 162, 119, 175, 34, 12, 207, 176, 234, 98, 97, 19, 217, 8, 182, 13, 216, 193, 79, 22, 177, 246, 90})
	f.Add(uint8(167), uint8(70), []byte{157, 157, 82, 26, 183, 96, 183, 74, 0, 26, 221, 140, 103, 18, 237, 174, 163, 247, 43, 68, 232, 210, 5, 228, 145, 205, 94, 66, 165, 85, 3, 47, 127, 230, 237, 125, 132, 68, 74, 134, 84, 8, 218, 201, 191, 188, 32, 161, 90, 192, 154, 9, 75, 8, 180, 147, 84, 101, 183, 89, 230, 170, 210, 122, 208, 27, 76, 219, 29, 10, 184, 153, 181, 254, 2, 238, 139})
	f.Add(uint8(116), uint8(104), []byte{9, 77, 188, 168, 63, 132, 26, 52, 164, 91, 23, 254, 130, 16, 221, 102, 157, 56, 216, 167, 105, 196, 166, 97, 36, 32, 134, 236, 132, 152, 220, 139, 226, 255, 179, 126, 91, 8, 69, 102, 158, 126, 68, 139, 124, 249, 238, 45, 18, 221, 160, 115, 14, 8, 147, 190, 202, 48, 119, 183, 201, 216, 243, 78, 120, 222, 77, 25, 244, 168, 162, 193, 246, 78, 106, 206, 88, 205, 229, 81, 145, 111, 147, 65, 103, 253, 19, 123, 128, 228, 213, 1, 94, 228, 71, 0, 232, 23, 184, 160, 215, 195, 187, 45, 158, 89, 127, 82, 189, 14, 78, 225, 122, 104, 223})
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		width := int(w%128) + 16
		height := int(h%64) + 16
		bounds := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(width-1, height-1)}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		pt := func() geom.Point { x := next(); return geom.Pt(x%width, next()%height) }

		// Three searches, each: a source, a hint, a tree of up to
		// three segments (corner points joined by an L each), a window
		// margin, a direction choice and the -s bit.
		type net struct {
			from, hint geom.Point
			tree       []Segment
			margin     int
			dirs       []geom.Dir
			swap       bool
		}
		allDirs := []geom.Dir{geom.Right, geom.Up, geom.Left, geom.Down}
		var nets []net
		for range 3 {
			n := net{from: pt(), hint: pt()}
			p := pt()
			for range next()%3 + 1 {
				q := pt()
				corner := geom.Pt(q.X, p.Y)
				n.tree = append(n.tree, Segment{p, corner}, Segment{corner, q})
				p = q
			}
			n.margin = next() % 48
			n.dirs = allDirs
			if d := next(); d&4 != 0 {
				n.dirs = allDirs[d&3 : d&3+1]
			} else {
				n.swap = d&1 != 0
			}
			nets = append(nets, n)
		}
		// Obstacles from the remaining bytes: walls of up to 63 points
		// along one axis, then a foreign two-segment wire and a foreign
		// claimpoint per step. Net sources and hints stay free.
		pl := NewPlane(bounds)
		isTerm := func(p geom.Point) bool {
			for _, n := range nets {
				if p == n.from || p == n.hint {
					return true
				}
			}
			return false
		}
		for k := 0; k < 40 && len(data) >= 3; k++ {
			p, l := pt(), next()
			d := geom.Pt(1, 0)
			if l&1 != 0 {
				d = geom.Pt(0, 1)
			}
			for range l>>2 + 1 {
				if !isTerm(p) {
					pl.BlockPoint(p) // ignores points past the border
				}
				p = p.Add(d)
			}
			if l&2 != 0 {
				a, b := pt(), pt()
				c := geom.Pt(b.X, a.Y)
				_ = pl.LayWire(int32(10+k), []Segment{{a, c}, {c, b}}) // conflicts skipped
				pl.Claim(pt(), int32(50+k))
			}
		}

		ar := newSearchArena(pl)
		for ni, n := range nets {
			id := int32(ni) + 1
			inTarget := map[geom.Point]bool{n.hint: true}
			bbox := boxAdd(ptBox(n.from), n.hint)
			for _, sg := range n.tree {
				for _, p := range sg.Points() {
					inTarget[p] = true
					bbox = boxAdd(bbox, p)
				}
			}
			win := winExpand(bbox, n.margin, bounds)
			target := func(p geom.Point) bool { return inTarget[p] }

			var found []Segment
			for _, marks := range []bool{true, false} {
				search := func(a *searchArena, run func(*lineSearch, []*active) ([]Segment, bool)) string {
					ls := newLineSearch(pl, id, target, n.swap, win, a)
					ls.stats = &SearchStats{}
					if marks {
						ls.setTargets([]geom.Point{n.hint}, n.tree)
					}
					segs, ok := run(ls, terminalActives(n.from, n.dirs))
					if ok {
						found = segs
					}
					return fmt.Sprintf("ok=%v exact=%v waves=%d actives=%d segs=%v sols=%s",
						ok, ls.exact(), ls.stats.Waves, ls.stats.Actives, segs, solutionsKey(ls.sols))
				}
				want := search(nil, (*lineSearch).fullWaveRun)
				got := search(ar, (*lineSearch).run)
				if got != want {
					t.Fatalf("net %d (marks %v) diverges from the full-wave reference:\n  full  %s\n  probe %s",
						id, marks, want, got)
				}
			}
			if found != nil {
				_ = pl.LayWire(id, found) // the next nets cross or avoid it
			}
		}
	})
}
