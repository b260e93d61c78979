package route

import (
	"testing"

	"netart/internal/geom"
)

// FuzzPlaneOverlay is the property test of the plane's derived stops
// overlay (Plane.stops): the expansion engine's hot sweep reads one
// stops byte per cell instead of the five authoritative arrays, so
// after an arbitrary stream of the mutations routing performs — claim
// placement and release, validated LayWire calls, and the raw setters
// — every cell's stops byte must equal the one recomputed from those
// arrays.

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
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		width := int(w%16) + 1
		height := int(h%16) + 1
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
			want := got
			pl.refreshStops(i)
			if pl.stops[i] != want {
				t.Fatalf("stops overlay at index %d is %05b, arrays say %05b", i, want, pl.stops[i])
			}
		}
	})
}
