package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration. The reference host is a shared 2-vCPU VM
// whose speed drifts in phases of minutes: the same seed of cold-large
// ran at 1.15 and 1.45 designs/s a few minutes apart, and the setup
// times moved with it. A run's own timings cannot tell such a phase
// from a change in the program, so every closed-loop run also times a
// fixed computation of its own, interleaved with the requests while the
// daemon is idle, and the gating times are scaled to the speed that
// computation measures.
//
// The computation depends on nothing in the program, so a change to
// netart never changes it. Its two halves (calParts) mimic the two
// kinds of work the daemon does; a kernel of either half alone tracked
// the in-process pipeline less well in some of the host's phases.

// calRefMs is about the median time of one unit (both calParts) on the
// reference host (Intel Xeon, 2 vCPU, go1.24); it sets the scale that
// calibrated numbers read in. A run's host factor is its median unit
// time over this, and gating times are divided by it (throughputs
// multiplied).
const calRefMs = 30.0

// calShare is the share of a measured window the calibration may take.
const calShare = 0.10

// calParts are the two halves of one unit of calibration work, about
// calRefMs together. wave is a breadth-first wave over a grid with
// obstacles, memory-bound like the router's search; text names,
// indexes, sorts and formats items on freshly allocated memory, like
// the rest of the pipeline and the garbage collection it drives. Each
// returns a value that depends on all of its work.
var calParts = [2]func() int{
	func() int {
		const w = 640
		r := newRNG(0x5eed)
		dist := make([]int32, w*w)
		for i := range dist {
			dist[i] = -1
			if r.intn(5) == 0 {
				dist[i] = -2 // obstacle
			}
		}
		c0 := int32(w/2*w + w/2)
		dist[c0] = 0
		q := append(make([]int32, 0, w*w), c0)
		for h := 0; h < len(q); h++ {
			c := q[h]
			x, d := c%w, dist[c]+1
			for _, n := range [4]int32{c - 1, c + 1, c - w, c + w} {
				if n < 0 || n >= w*w || (n == c-1 && x == 0) || (n == c+1 && x == w-1) || dist[n] != -1 {
					continue
				}
				dist[n] = d
				q = append(q, n)
			}
		}
		return len(q)
	},
	func() int {
		r := newRNG(0x5eed)
		const n = 14000
		m := make(map[string]int)
		keys := make([]string, 0, n)
		for i := 0; i < n; i++ {
			k := "n" + strconv.Itoa(r.intn(1<<30))
			m[k] = i
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, `<path d="M%d %d"/>`, m[k], len(k))
		}
		return b.Len()
	},
}

// calibrator times units of calibration work and keeps when each ended
// and how long each half took.
type calibrator struct {
	mu    sync.Mutex
	ends  []time.Time
	durs  [][2]time.Duration
	spent time.Duration
	sink  int
}

// catchUp runs units until the calibration has taken at least calShare
// of the time elapsed since start.
func (c *calibrator) catchUp(start time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.spent < time.Duration(calShare*float64(time.Since(start))) {
		var d [2]time.Duration
		for k, part := range calParts {
			t := time.Now()
			c.sink += part()
			d[k] = time.Since(t)
		}
		c.spent += d[0] + d[1]
		c.ends = append(c.ends, time.Now())
		c.durs = append(c.durs, d)
	}
}

// spentBy is the calibration time of the units that ended by t.
func (c *calibrator) spentBy(t time.Time) time.Duration {
	var d time.Duration
	for i, e := range c.ends {
		if !e.After(t) {
			d += c.durs[i][0] + c.durs[i][1]
		}
	}
	return d
}

// medians returns the median unit time and the median time of each
// half, in ms. The run's host factor is the first over calRefMs.
func (c *calibrator) medians() (unit, wave, text float64) {
	var u, a, b []float64
	for _, d := range c.durs {
		u = append(u, ms(d[0]+d[1]))
		a = append(a, ms(d[0]))
		b = append(b, ms(d[1]))
	}
	return median(u), median(a), median(b)
}
