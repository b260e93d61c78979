package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"netart/internal/library"
	"netart/internal/netlist"
)

func TestSameSeedSameInputBytes(t *testing.T) {
	for _, w := range workloads {
		for _, f := range []family{w.fresh, w.warm} {
			if f.prefix == "" {
				continue
			}
			for i := 0; i < 20; i++ {
				a, b := f.design(7, i), f.design(7, i)
				if a != b {
					t.Fatalf("%s design %d: two generations with seed 7 differ", f.prefix, i)
				}
				if c := f.design(8, i); c.Calls == a.Calls && c.Netlist == a.Netlist {
					t.Fatalf("%s design %d: seeds 7 and 8 give the same design", f.prefix, i)
				}
			}
		}
		if w.rate > 0 {
			a, b := w.schedule(7, 2*time.Second), w.schedule(7, 2*time.Second)
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("%s: schedules of length %d and %d", w.name, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: arrival %d differs between two schedules with seed 7", w.name, i)
				}
			}
		}
	}
}

// The pinned hashes fix the generator's output: changing it changes
// every workload's inputs and so the baseline, which must be deliberate.
func TestGeneratorOutputPinned(t *testing.T) {
	for _, c := range []struct {
		f    family
		want string
	}{{midUniform, "dde626c09dfb5298"}, {largeClustered, "578f2e04af8bfd3e"}} {
		d := c.f.design(1, 3)
		sum := sha256.Sum256([]byte(d.Calls + "\x00" + d.Netlist + "\x00" + d.IO))
		if got := hex.EncodeToString(sum[:8]); got != c.want {
			t.Errorf("%s: generator output hash %s, pinned %s", d.ID, got, c.want)
		}
	}
}

func TestGeneratedDesignsLoad(t *testing.T) {
	lib := library.Builtin()
	for _, f := range []family{midUniform, largeClustered} {
		for i := 0; i < 16; i++ {
			d := f.design(3, i)
			if d.Modules < f.minN || d.Modules > f.maxN {
				t.Fatalf("%s: %d modules outside [%d,%d]", d.ID, d.Modules, f.minN, f.maxN)
			}
			ds, err := netlist.Load(d.ID, strings.NewReader(d.Calls), strings.NewReader(d.Netlist),
				strings.NewReader(d.IO), lib)
			if err != nil {
				t.Fatalf("%s: %v", d.ID, err)
			}
			if err := ds.Validate(2); err != nil {
				t.Fatalf("%s: %v", d.ID, err)
			}
		}
	}
}

func TestClusteredWiringIsMostlyLocal(t *testing.T) {
	d := largeClustered.design(5, 0)
	byNet := map[string][]int{}
	for _, line := range strings.Split(strings.TrimSpace(d.Netlist), "\n") {
		f := strings.Fields(line)
		if f[1] == "root" {
			continue
		}
		var mod int
		if _, err := fmt.Sscan(f[1][1:], &mod); err != nil {
			t.Fatal(err)
		}
		byNet[f[0]] = append(byNet[f[0]], mod/largeClustered.cluster)
	}
	cross := 0
	for _, cs := range byNet {
		for _, c := range cs[1:] {
			if c != cs[0] {
				cross++
				break
			}
		}
	}
	share := float64(cross) / float64(len(byNet))
	if share < 0.04 || share > 0.2 {
		t.Fatalf("%.2f of nets leave their cluster, want about 0.10", share)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if v, ok := percentile(xs, 0.90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %t; want 90, true", v, ok)
	}
	if _, ok := percentile(xs, 0.91); ok {
		t.Fatal("p91 of 100 samples has 9 beyond it and must not be reported")
	}
	if v, ok := percentile(xs[:20], 0.5); !ok || v != 90 {
		t.Fatalf("p50 of 20 samples = %v, %t; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:19], 0.5); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it and must not be reported")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if xs[0] != 100 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const step, work = 20 * time.Millisecond, 60 * time.Millisecond
	offsets := []time.Duration{0, step, 2 * step}
	start := time.Now()
	ts := openLoop(start, offsets, 1, func(int) error { time.Sleep(work); return nil })
	for i, tm := range ts {
		if want := start.Add(offsets[i]); !tm.due.Equal(want) {
			t.Fatalf("op %d due %v, want its scheduled time %v", i, tm.due.Sub(start), offsets[i])
		}
		// One connection: op i cannot start before i·work, so it runs
		// i·(work−step) late, and its latency includes that wait.
		wantLate := time.Duration(i) * (work - step)
		if tm.late() < wantLate-5*time.Millisecond {
			t.Fatalf("op %d late %v, want at least %v", i, tm.late(), wantLate)
		}
		if tm.latency() < wantLate+work-5*time.Millisecond {
			t.Fatalf("op %d latency %v does not include its %v lateness", i, tm.latency(), tm.late())
		}
	}
	// With enough connections nothing is late.
	ts = openLoop(time.Now(), offsets, 3, func(int) error { time.Sleep(work); return nil })
	for i, tm := range ts {
		if tm.late() > 15*time.Millisecond {
			t.Fatalf("op %d late %v with a free connection", i, tm.late())
		}
	}
}

func TestClosedLoopRunsUntilWindowAndMinimum(t *testing.T) {
	ts := closedLoop(time.Now(), 0, time.Minute, 2, 7, func(int) error { return nil }, nil)
	if len(ts) != 7 {
		t.Fatalf("%d operations, want the minimum of 7", len(ts))
	}
	ts = closedLoop(time.Now(), 30*time.Millisecond, time.Minute, 1, 1,
		func(int) error { time.Sleep(5 * time.Millisecond); return nil }, nil)
	if len(ts) < 4 || ts[len(ts)-1].sent.Sub(ts[0].due) < 25*time.Millisecond {
		t.Fatalf("%d operations did not fill the 30ms window", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if !ts[i].due.Equal(ts[i-1].done) {
			t.Fatalf("op %d is due at %v, not when its client became free", i, ts[i].due)
		}
	}
	// Work the client does in onDone is not charged to its next operation.
	const hook = 10 * time.Millisecond
	ts = closedLoop(time.Now(), 0, time.Minute, 1, 3, func(int) error { return nil },
		func(int) { time.Sleep(hook) })
	for i := 1; i < len(ts); i++ {
		if gap := ts[i].due.Sub(ts[i-1].done); gap < hook {
			t.Fatalf("op %d is due %v after the previous one, inside its client's %v hook", i, gap, hook)
		}
		if ts[i].latency() >= hook {
			t.Fatalf("op %d latency %v includes the hook", i, ts[i].latency())
		}
	}
}

func TestCalibratorKeepsItsShare(t *testing.T) {
	var c calibrator
	start := time.Now()
	time.Sleep(300 * time.Millisecond)
	c.catchUp(start)
	if c.spent < time.Duration(calShare*float64(time.Since(start)-c.spent)) {
		t.Fatalf("calibrated %v of %v, want at least a %.0f%% share", c.spent, time.Since(start), calShare*100)
	}
	if n := len(c.durs); n == 0 || c.spentBy(time.Now()) != c.spent || c.spentBy(start) != 0 {
		t.Fatalf("%d units, spentBy(now)=%v spentBy(start)=%v, spent %v", n, c.spentBy(time.Now()), c.spentBy(start), c.spent)
	}
	if u, wave, text := c.medians(); !(wave > 0 && text > 0 && u >= wave && u >= text) {
		t.Fatalf("median unit %v ms, halves %v and %v ms", u, wave, text)
	}
	// A caught-up calibrator runs nothing more right away.
	n := len(c.durs)
	c.catchUp(time.Now())
	if len(c.durs) != n {
		t.Fatal("catchUp ran units with no time elapsed")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	ix := indexSpans([]Span{
		{ID: 1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 50 * ms}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: 10 * ms, End: 20 * ms},
	})
	if got := ix.selfTime(ix.spans[0]); got != 60*ms {
		t.Fatalf("root self time %v, want 60ms", got)
	}
	if got := ix.selfTime(ix.spans[1]); got != 20*ms {
		t.Fatalf("a self time %v, want 20ms", got)
	}
}

func TestGrowthExponent(t *testing.T) {
	x := []float64{10, 20, 40, 80}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3 * x[i] * x[i] * x[i]
	}
	if k := growthExponent(x, y); k < 2.999 || k > 3.001 {
		t.Fatalf("exponent %v, want 3", k)
	}
}

func TestSplitDiagramKeepsTheLiteral(t *testing.T) {
	body := []byte(`{"name":"d","format":"svg","diagram":"<svg a=\"1\">\\\n</svg>","cached":true,"elapsed_ms":1.5}`)
	lit, rest, err := splitDiagram(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `"<svg a=\"1\">\\\n</svg>"`; string(lit) != want {
		t.Fatalf("literal %s, want %s", lit, want)
	}
	var r response
	if err := json.Unmarshal(rest, &r); err != nil || !r.Cached || r.ElapsedMs != 1.5 || r.Diagram != "" {
		t.Fatalf("rest %s decodes to %+v, %v", rest, r, err)
	}
	if _, _, err := splitDiagram([]byte(`{"diagram":"unterminated\"}`)); err == nil {
		t.Fatal("unterminated literal accepted")
	}
}
