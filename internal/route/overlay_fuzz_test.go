package route

import (
	"testing"

	"netart/internal/geom"
)

// FuzzPlaneOverlay is the property test of the plane's derived stops
// overlays: the stops byte per cell (Plane.stops), which the expansion
// engine's sweep reads instead of the five authoritative arrays, and
// the row and column bitboards mirroring stops != 0, which it scans 64
// cells at a time. After an arbitrary stream of the mutations routing
// performs — claim placement and release, validated LayWire calls, and
// the raw setters — every cell's stops byte must equal the one
// recomputed from those arrays, and its row and column bits must equal
// stops != 0.

// fuzzOps interprets data as an op stream against pl.
func fuzzOps(pl *Plane, data []byte) {
	w := pl.Bounds.Max.X - pl.Bounds.Min.X + 1
	h := pl.Bounds.Max.Y - pl.Bounds.Min.Y + 1
	pt := func(a, b byte) geom.Point {
		return geom.Pt(pl.Bounds.Min.X+int(a)%w, pl.Bounds.Min.Y+int(b)%h)
	}
	for len(data) >= 4 {
		op, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		p := pt(a, b)
		net := int32(c%4) + 1
		switch op % 7 {
		case 0:
			pl.Claim(p, net)
		case 1:
			pl.ReleaseClaims(net)
		case 2:
			pl.ReleaseAllClaims()
		case 3:
			// LayWire of a 1..3-long segment from p along one axis.
			if len(data) < 1 {
				return
			}
			d := data[0]
			data = data[1:]
			q := p
			length := int(d%3) + 1
			if d%2 == 0 {
				q.X += length
			} else {
				q.Y += length
			}
			_ = pl.LayWire(net, []Segment{{A: p, B: q}})
		case 4:
			pl.setH(pl.idx(p), net)
		case 5:
			pl.setV(pl.idx(p), net)
		case 6:
			pl.setBend(pl.idx(p))
		}
	}
}

func FuzzPlaneOverlay(f *testing.F) {
	f.Add(uint8(8), uint8(8), []byte{3, 1, 1, 0, 2, 0, 1, 1, 1, 0, 3, 3, 2})
	f.Add(uint8(4), uint8(6), []byte{4, 0, 0, 1, 6, 0, 0, 0, 2, 0, 0, 0})
	f.Add(uint8(12), uint8(3), []byte{0, 5, 1, 2, 1, 0, 0, 2, 3, 5, 1, 0})
	f.Add(uint8(1), uint8(1), []byte{3, 0, 0, 3, 0})
	f.Add(uint8(66), uint8(70), []byte{3, 63, 64, 1, 0, 6, 64, 63, 2, 0, 63, 64, 3, 1, 2, 63, 64, 1})
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		// Sides up to 80 points, so the bitboards span a word edge.
		width := int(w%80) + 1
		height := int(h%80) + 1
		bounds := geom.Rect{Min: geom.Pt(-1, -2),
			Max: geom.Pt(-1+width-1, -2+height-1)}

		// Static setup derived from the same bytes: a blocked point and a
		// terminal, so LayWire validation has texture to hit.
		pl := NewPlane(bounds)
		if len(data) >= 4 {
			p1 := geom.Pt(bounds.Min.X+int(data[0])%width, bounds.Min.Y+int(data[1])%height)
			p2 := geom.Pt(bounds.Min.X+int(data[2])%width, bounds.Min.Y+int(data[3])%height)
			pl.BlockPoint(p1)
			_ = pl.SetTerminal(p2, 1)
		}
		fuzzOps(pl, data)

		for i, got := range pl.stops {
			x, y := i%width, i/width
			want := got != 0
			if row := testBit(pl.stopRow[y*pl.rowWords:], x); row != want {
				t.Fatalf("row bit of (%d,%d) is %v, stops byte %05b", x, y, row, got)
			}
			if col := testBit(pl.stopCol[x*pl.colWords:], y); col != want {
				t.Fatalf("column bit of (%d,%d) is %v, stops byte %05b", x, y, col, got)
			}
			pl.refreshStops(i)
			if pl.stops[i] != got {
				t.Fatalf("stops overlay at index %d is %05b, arrays say %05b", i, got, pl.stops[i])
			}
		}
	})
}
