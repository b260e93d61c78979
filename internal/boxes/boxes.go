// Package boxes implements the box formation step of Koster & Stok
// (§4.6.3, BOX_FORMATION): inside each partition, continuous strings of
// out→in connected modules are peeled off along longest paths rooted at
// designated root modules. The position of a module in its string is its
// level, which enforces left-to-right signal flow during module
// placement.
package boxes

import (
	"netart/internal/netlist"
	"netart/internal/partition"
)

// Box is one string of connected modules. Modules[0] is the root (level
// 1 in the paper's terms); Modules[i] is out→in connected to
// Modules[i+1].
type Box struct {
	Modules []*netlist.Module
}

// Len returns the string length.
func (b *Box) Len() int { return len(b.Modules) }

// Head returns the first (leftmost) module.
func (b *Box) Head() *netlist.Module { return b.Modules[0] }

// Tail returns the last (rightmost) module.
func (b *Box) Tail() *netlist.Module { return b.Modules[len(b.Modules)-1] }

// Config bounds the string search.
type Config struct {
	// MaxBoxSize is the maximum string length (-b). Values < 1 are
	// treated as 1, the Appendix E default, which keeps every module in
	// its own box (figures 6.2 and 6.3).
	MaxBoxSize int
}

func (c Config) maxBox() int {
	if c.MaxBoxSize < 1 {
		return 1
	}
	return c.MaxBoxSize
}

// Form divides every partition into boxes. The returned outer slice is
// parallel to parts.
func Form(d *netlist.Design, parts []*partition.Part, cfg Config) [][]*Box {
	out := make([][]*Box, len(parts))
	for i, p := range parts {
		out[i] = formPartition(d, p, cfg)
	}
	return out
}

// formPartition implements the inner loop of BOX_FORMATION for one
// partition: compute the root set, then repeatedly extract the longest
// path over the remaining modules, rooted at a remaining root.
func formPartition(d *netlist.Design, p *partition.Part, cfg Config) []*Box {
	remaining := map[*netlist.Module]bool{}
	order := append([]*netlist.Module(nil), p.Modules...)
	for _, m := range order {
		remaining[m] = true
	}
	roots := ConstructRoots(d, p)

	var out []*Box
	for len(remaining) > 0 {
		// Live roots: still unassigned. If none remain (all roots were
		// consumed mid-path or the partition has no roots at all), every
		// remaining module becomes a candidate root; the paper's loop
		// assumes roots never run dry, which does not hold for cyclic or
		// root-free partitions.
		var live []*netlist.Module
		for _, m := range order {
			if remaining[m] && roots[m] {
				live = append(live, m)
			}
		}
		if len(live) == 0 {
			for _, m := range order {
				if remaining[m] {
					live = append(live, m)
				}
			}
		}
		var maxPath []*netlist.Module
		for _, r := range live {
			path := longestPath(d, []*netlist.Module{r}, remaining, cfg.maxBox())
			if len(path) > len(maxPath) {
				maxPath = path
			}
		}
		for _, m := range maxPath {
			delete(remaining, m)
		}
		delete(roots, maxPath[0])
		out = append(out, &Box{Modules: maxPath})
	}
	return out
}

// ConstructRoots implements CONSTRUCT_ROOTS: a module may root a string
// if (a) it is connected to a module outside the partition, or (b) it is
// connected by a net to a system terminal of type in or inout, or (c) it
// has exactly one distinct net to other modules.
func ConstructRoots(d *netlist.Design, p *partition.Part) map[*netlist.Module]bool {
	inPart := p.Set()
	roots := map[*netlist.Module]bool{}
	for _, m := range p.Modules {
		if connectsOutsidePartition(m, inPart) ||
			connectsInSystemTerminal(m) ||
			moduleNetDegree(m) == 1 {
			roots[m] = true
		}
	}
	return roots
}

func connectsOutsidePartition(m *netlist.Module, inPart map[*netlist.Module]bool) bool {
	for _, t := range m.Terms {
		if t.Net == nil {
			continue
		}
		for _, u := range t.Net.Terms {
			if u.Module != nil && u.Module != m && !inPart[u.Module] {
				return true
			}
		}
	}
	return false
}

func connectsInSystemTerminal(m *netlist.Module) bool {
	for _, t := range m.Terms {
		if t.Net == nil {
			continue
		}
		for _, u := range t.Net.Terms {
			if u.Module == nil && (u.Type == netlist.In || u.Type == netlist.InOut) {
				return true
			}
		}
	}
	return false
}

// moduleNetDegree counts the distinct nets connecting m to other
// modules.
func moduleNetDegree(m *netlist.Module) int {
	seen := map[*netlist.Net]bool{}
	count := 0
	for _, t := range m.Terms {
		n := t.Net
		if n == nil || seen[n] {
			continue
		}
		seen[n] = true
		for _, u := range n.Terms {
			if u.Module != nil && u.Module != m {
				count++
				break
			}
		}
	}
	return count
}

// longestPath implements LONGEST_PATH: depth-first extension of path by
// modules from the remaining set that are out→in connected to the
// current path tail, bounded by maxBox.
func longestPath(d *netlist.Design, path []*netlist.Module,
	remaining map[*netlist.Module]bool, maxBox int) []*netlist.Module {
	maxPath := append([]*netlist.Module(nil), path...)
	if len(path) >= maxBox {
		return maxPath
	}
	// Iterate candidates deterministically via the tail's nets rather
	// than map order.
	tail := path[len(path)-1]
	for _, cand := range outInSuccessors(tail) {
		if !remaining[cand] || contains(path, cand) {
			continue
		}
		delete(remaining, cand)
		p := longestPath(d, append(path, cand), remaining, maxBox)
		remaining[cand] = true
		if len(p) > len(maxPath) {
			maxPath = p
		}
	}
	return maxPath
}

func contains(path []*netlist.Module, m *netlist.Module) bool {
	for _, x := range path {
		if x == m {
			return true
		}
	}
	return false
}

// outInSuccessors returns, in deterministic order, the modules reachable
// from m over a net that leaves m through an out/inout terminal and
// enters the successor through an in/inout terminal — the string
// connectivity condition of LONGEST_PATH.
func outInSuccessors(m *netlist.Module) []*netlist.Module {
	var out []*netlist.Module
	seen := map[*netlist.Module]bool{}
	for _, t := range m.Terms {
		if t.Net == nil || !t.Type.CanDrive() {
			continue
		}
		for _, u := range t.Net.Terms {
			if u.Module == nil || u.Module == m || seen[u.Module] {
				continue
			}
			if u.Type.CanSink() {
				seen[u.Module] = true
				out = append(out, u.Module)
			}
		}
	}
	return out
}

// StringNet returns the net and terminal pair that links two successive
// string modules: an out/inout terminal of prev and an in/inout terminal
// of next on a common net. Module placement aligns these terminals. The
// boolean result is false when the modules are not out→in connected
// (which cannot happen for boxes produced by Form).
func StringNet(prev, next *netlist.Module) (tPrev, tNext *netlist.Terminal, ok bool) {
	for _, t := range prev.Terms {
		if t.Net == nil || !t.Type.CanDrive() {
			continue
		}
		for _, u := range t.Net.Terms {
			if u.Module == next && u.Type.CanSink() {
				return t, u, true
			}
		}
	}
	return nil, nil, false
}
