package main

import (
	"fmt"
	"strings"
)

// This file is the benchmark's own seeded input generator. It emits
// Appendix A text (call-file, net-list-file, io-file) and deliberately
// depends on nothing in the program under test: the pin table below is
// a frozen copy of the builtin-library templates it instantiates, and
// the random stream is a local splitmix64, so no change to the program
// or the Go toolchain can change the bytes a seed produces.

// pins lists one template's terminals: ins are driven, outs drive.
type pins struct {
	name      string
	ins, outs []string
}

// templates is the frozen subset of the builtin library the generator
// draws from: gates, storage and small datapath blocks, all with inputs
// on the left and outputs on the right.
var templates = []pins{
	{"INV", []string{"A"}, []string{"Y"}},
	{"BUF", []string{"A"}, []string{"Y"}},
	{"AND2", []string{"A", "B"}, []string{"Y"}},
	{"OR2", []string{"A", "B"}, []string{"Y"}},
	{"NAND2", []string{"A", "B"}, []string{"Y"}},
	{"NOR2", []string{"A", "B"}, []string{"Y"}},
	{"XOR2", []string{"A", "B"}, []string{"Y"}},
	{"AND3", []string{"A", "B", "C"}, []string{"Y"}},
	{"DFF", []string{"D", "CLK"}, []string{"Q", "QN"}},
	{"MUX2", []string{"A", "B", "S"}, []string{"Y"}},
	{"REG", []string{"D", "EN", "CLK"}, []string{"Q"}},
	{"ADD", []string{"A", "B"}, []string{"S", "CO"}},
}

// rng is splitmix64: tiny, fast, and fixed forever by this file.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// streamSeed derives an independent stream for (seed, purpose, index).
func streamSeed(seed int64, purpose string, idx int) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * 1099511628211
	}
	r := newRNG(uint64(seed) ^ h)
	r.s ^= uint64(idx) * 0xd1b54a32d192ed03
	return r.next()
}

// Design is one generated network as the Appendix A text netartd
// accepts inline.
type Design struct {
	ID      string // unique per (seed, family, index); also the design name
	Modules int
	Calls   string
	Netlist string
	IO      string
}

// family is one kind of generated design.
type family struct {
	prefix    string
	minN      int
	maxN      int
	cluster   int     // modules per cluster; 0 = uniform wiring
	crossFrac float64 // share of nets whose first sink is in the next cluster
	strata    int     // sizes are stratified over blocks of this many designs
	// fixedSizes makes the size of design i the same for every seed
	// (only the wiring is seeded).
	fixedSizes bool
}

// Families used by the workloads; see README.md for why each exists.
// Their sizes do not depend on the seed, only the wiring does: a
// design's time grows faster than its size, so a seed that drew larger
// sizes than another would move the latency by itself.
var (
	// midUniform: paper-sized networks wired uniformly at random, so
	// routing is congested and retries and unrouted nets show up.
	midUniform = family{prefix: "mid", minN: 40, maxN: 120, strata: 16, fixedSizes: true}
	// largeClustered: big networks of 8-module clusters with about 10%
	// of nets reaching the next cluster, so wiring is local and the
	// plane is large and sparse.
	largeClustered = family{prefix: "big", minN: 256, maxN: 384, cluster: 8, crossFrac: 0.10, strata: 8, fixedSizes: true}
)

// size picks design idx's module count. Sizes are stratified: each
// block of f.strata consecutive designs covers [minN,maxN] evenly in a
// seeded order, so the size mix of any run is nearly the same for every
// seed and only the wiring differs.
func (f family) size(seed int64, idx int) int {
	block, pos := idx/f.strata, idx%f.strata
	if f.fixedSizes {
		seed = 0
	}
	r := newRNG(streamSeed(seed, f.prefix+"/sizes", block))
	perm := make([]int, f.strata)
	for i := range perm {
		perm[i] = i
	}
	r.shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	span := float64(f.maxN - f.minN + 1)
	n := f.minN + int((float64(perm[pos])+r.float())*span/float64(f.strata))
	if f.cluster > 0 {
		n -= n % f.cluster
		if n < f.minN {
			n += f.cluster
		}
	}
	return n
}

// design generates design idx of family f for seed.
func (f family) design(seed int64, idx int) Design {
	n := f.size(seed, idx)
	r := newRNG(streamSeed(seed, f.prefix, idx))
	id := fmt.Sprintf("%s_s%d_%d", f.prefix, seed, idx)

	type pin struct {
		mod  int
		term string
	}
	var calls strings.Builder
	clusters := 1
	if f.cluster > 0 {
		clusters = n / f.cluster
	}
	drivers := make([][]pin, clusters)
	sinks := make([][]pin, clusters)
	for i := 0; i < n; i++ {
		t := templates[r.intn(len(templates))]
		fmt.Fprintf(&calls, "u%d %s\n", i, t.name)
		c := 0
		if f.cluster > 0 {
			c = i / f.cluster
		}
		for _, o := range t.outs {
			drivers[c] = append(drivers[c], pin{i, o})
		}
		for _, in := range t.ins {
			sinks[c] = append(sinks[c], pin{i, in})
		}
	}
	for c := range drivers {
		d, s := drivers[c], sinks[c]
		r.shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
		r.shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}

	// take pops a sink of cluster c not on module avoid.
	take := func(c, avoid int) (pin, bool) {
		s := sinks[c]
		for k := len(s) - 1; k >= 0; k-- {
			if s[k].mod != avoid {
				p := s[k]
				sinks[c] = append(s[:k], s[k+1:]...)
				return p, true
			}
		}
		return pin{}, false
	}

	var nets strings.Builder
	var io strings.Builder
	// One driver is reserved for the system output before wiring starts.
	oc := r.intn(clusters)
	out := drivers[oc][0]
	drivers[oc] = drivers[oc][1:]
	io.WriteString("OUT0 out\n")
	fmt.Fprintf(&nets, "sys_out0 root OUT0\nsys_out0 u%d %s\n", out.mod, out.term)

	netID := 0
	// Drivers are visited round-robin across clusters so that every
	// cluster's sink pool drains at the same pace.
	for k := 0; ; k++ {
		more := false
		for c := range drivers {
			if k >= len(drivers[c]) {
				continue
			}
			more = true
			drv := drivers[c][k]
			deg := 1 + r.intn(3)
			var got []pin
			if clusters > 1 && r.float() < f.crossFrac {
				nc := c + 1
				if nc == clusters || (c > 0 && r.intn(2) == 0) {
					nc = c - 1
				}
				if p, ok := take(nc, drv.mod); ok {
					got = append(got, p)
				}
			}
			for len(got) < deg {
				p, ok := take(c, drv.mod)
				if !ok {
					break
				}
				got = append(got, p)
			}
			if len(got) == 0 {
				continue
			}
			fmt.Fprintf(&nets, "n%d u%d %s\n", netID, drv.mod, drv.term)
			for _, p := range got {
				fmt.Fprintf(&nets, "n%d u%d %s\n", netID, p.mod, p.term)
			}
			netID++
		}
		if !more {
			break
		}
	}

	// Two system inputs on fresh nets, so every design exercises the
	// system-terminal placement of §4.
	for i := 0; i < 2; i++ {
		if p, ok := take(r.intn(clusters), -1); ok {
			fmt.Fprintf(&io, "IN%d in\n", i)
			fmt.Fprintf(&nets, "sys_in%d root IN%d\nsys_in%d u%d %s\n", i, i, i, p.mod, p.term)
		}
	}

	return Design{ID: id, Modules: n, Calls: calls.String(), Netlist: nets.String(), IO: io.String()}
}
