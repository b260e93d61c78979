package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"netart/internal/service"
	"netart/internal/store"
)

// endToEnd derives the metrics a user of netartd sees. Every workload
// reports the metrics BENCHMARK.json lists; README.md says what each
// means per workload.
func (r *benchRun) endToEnd(attempted, failed int) ([]metric, error) {
	w := r.cfg.w
	var lat, first, done []float64
	for _, o := range r.sync {
		if o.t.err == nil {
			lat = append(lat, ms(o.t.latency()))
		}
	}
	for _, o := range r.jobs {
		if o.t.err == nil {
			first = append(first, ms(o.job.firstEvent.Sub(o.t.due)))
			done = append(done, ms(o.job.terminal.Sub(o.t.due)))
		}
	}
	// Times are reported at the reference host's speed (calibrate.go):
	// divided by the run's host factor, throughput multiplied by it.
	// The raw numbers are printed beside them.
	u, wave, text := r.cal.medians()
	h := u / calRefMs
	if !(h > 0) {
		return nil, errors.New("no host calibration was measured")
	}
	var out []metric
	pct := func(name string, xs []float64, p float64, note string, info bool) error {
		v, ok := percentile(xs, p)
		if !ok {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond p%.0f", name, len(xs), minBeyond, p*100)
		}
		out = append(out, metric{name: name, value: v / h, unit: "ms", n: len(xs), note: note, info: info},
			metric{name: "raw." + name, value: v, unit: "ms", n: len(xs), info: true})
		return nil
	}
	syncKind := "fresh designs"
	if w.clients == 0 {
		syncKind = "cache hits"
	}
	if err := pct("latency_p50_ms", lat, 0.50, syncKind, false); err != nil {
		return nil, err
	}
	if err := pct("latency_tail_ms", lat, w.tailP, fmt.Sprintf("p%.0f of %s", w.tailP*100, syncKind), false); err != nil {
		return nil, err
	}
	if len(r.jobs) > 0 {
		if err := pct("job_first_event_p50_ms", first, 0.50, "", true); err != nil {
			return nil, err
		}
		if err := pct("job_done_p50_ms", done, 0.50, "", true); err != nil {
			return nil, err
		}
	}
	ok := 0
	for _, o := range append(append([]opResult(nil), r.sync...), r.jobs...) {
		if o.t.err == nil {
			ok++
		}
	}
	tput := float64(ok) / r.window.Seconds()
	out = append(out, metric{name: "throughput_dps", value: tput * h, unit: "1/s", n: ok},
		metric{name: "raw.throughput_dps", value: tput, unit: "1/s", n: ok, info: true,
			note: fmt.Sprintf("over %.2fs", r.window.Seconds())})
	out = append(out, metric{name: "ok_pct", value: 100 * float64(attempted-failed) / float64(attempted), unit: "%", n: attempted})

	var nets, unrouted, bends, crossings int
	for _, i := range r.list {
		ref := r.refs[i]
		if ref == nil {
			return nil, fmt.Errorf("design %s has no reference: %v", r.design(i).ID, r.refErr[i])
		}
		nets += ref.nets
		unrouted += ref.unrouted
		bends += ref.bends
		crossings += ref.crossings
	}
	n := len(r.list)
	out = append(out,
		metric{name: "routed_net_pct", value: 100 * float64(nets-unrouted) / float64(nets), unit: "%", n: n,
			note: fmt.Sprintf("%d of %d nets unrouted", unrouted, nets)},
		metric{name: "bends_per_net", value: float64(bends) / float64(nets), unit: "count", n: n,
			note: fmt.Sprintf("%d bends", bends)},
		metric{name: "crossings_per_net", value: float64(crossings) / float64(nets), unit: "count", n: n,
			note: fmt.Sprintf("%d crossings", crossings)},
		metric{name: "setup_s", value: median(r.setupS) / h, unit: "s", n: len(r.setupS)},
		metric{name: "raw.setup_s", value: median(r.setupS), unit: "s", n: len(r.setupS), info: true},
		metric{name: "host_factor", value: h, unit: "ratio", n: len(r.cal.durs), info: true,
			note: fmt.Sprintf("median calibration unit %.2f ms (wave %.2f, text %.2f) over %.0f ms", u, wave, text, calRefMs)},
		metric{name: "peak_rss_mb", value: r.rssMB, unit: "MB", n: 1},
	)

	// Recorded for the reader, not gating: the error rate (0 is the
	// expectation; the result's failed count carries it) and the
	// highest tail the samples support.
	out = append(out, metric{name: "error_rate", value: float64(failed) / float64(attempted), unit: "ratio", n: attempted, info: true})
	for _, p := range []float64{0.99, 0.95} {
		if v, ok := percentile(lat, p); ok {
			out = append(out, metric{name: fmt.Sprintf("latency_p%.0f_ms", p*100), value: v, unit: "ms", n: len(lat), info: true})
			break
		}
	}
	return out, nil
}

// layerMetrics derives the per-layer metrics from the recorded spans.
// Pipeline numbers are taken over the design list, so counts repeat
// exactly for a seed; times are means per design.
func (r *benchRun) layerMetrics() ([]metric, error) {
	if err := r.traceServiceLayer(); err != nil {
		return nil, err
	}
	all := indexSpans(r.tr.Spans())
	inList := map[string]bool{}
	for _, i := range r.list {
		inList[r.design(i).ID] = true
	}
	var listSpans []Span
	for _, s := range all.spans {
		if inList[s.Design] {
			listSpans = append(listSpans, s)
		}
	}
	ix := indexSpans(listSpans)
	n := float64(len(r.list))
	nd := len(r.list)
	var out []metric
	add := func(name string, v float64, unit string, samples int) {
		out = append(out, metric{name: name, value: v, unit: unit, n: samples})
	}

	var pipeMs float64
	for _, s := range ix.named("pipeline") {
		pipeMs += ms(s.Dur())
	}
	routeMs, placeMs := ix.selfMs("route"), ix.selfMs("place")
	cells := ix.count("route", "cells")
	var rmods, cellsBy, pmods, placeBy []float64
	for _, s := range ix.named("route") {
		rmods = append(rmods, s.Counts["modules"])
		cellsBy = append(cellsBy, s.Counts["cells"])
	}
	for _, s := range ix.named("place") {
		pmods = append(pmods, s.Counts["modules"])
		placeBy = append(placeBy, ms(ix.selfTime(s)))
	}
	add("route.route_ms", routeMs/n, "ms", nd)
	add("route.share", routeMs/pipeMs, "ratio", nd)
	for _, c := range []string{"cells", "searches", "waves", "actives", "widened", "rip_ups", "unrouted"} {
		add("route."+c, ix.count("route", c), "count", nd)
	}
	add("route.ns_per_cell", routeMs*1e6/cells, "ns", nd)
	add("route.cells_growth_exp", growthExponent(rmods, cellsBy), "exponent", nd)
	add("place.place_ms", placeMs/n, "ms", nd)
	add("place.share", placeMs/pipeMs, "ratio", nd)
	add("place.partitions", ix.count("place", "partitions"), "count", nd)
	add("place.boxes", ix.count("place", "boxes"), "count", nd)
	add("place.growth_exp", growthExponent(pmods, placeBy), "exponent", nd)
	add("schematic.svg_ms", ix.selfMs("schematic.svg")/n, "ms", nd)
	add("schematic.svg_bytes", ix.count("schematic.svg", "bytes")/n, "bytes", nd)
	add("schematic.metrics_ms", ix.selfMs("schematic.metrics")/n, "ms", nd)
	equivMs := ix.selfMs("verify.equiv")
	add("verify.equiv_ms", equivMs/n, "ms", nd)
	add("verify.equiv_share_of_route", equivMs/routeMs, "ratio", nd)
	add("verify.schematic_ms", ix.selfMs("verify.schematic")/n, "ms", nd)
	add("verify.boxes_ms", ix.selfMs("verify.boxes")/n, "ms", nd)
	add("netlist.load_ms", ix.selfMs("netlist.load")/n, "ms", nd)

	// Service and jobs numbers come from every HTTP operation of the run.
	var outside, respBytes []float64
	for _, s := range all.named("http.generate") {
		outside = append(outside, ms(s.Dur())-s.Counts["server_ms"])
		respBytes = append(respBytes, s.Counts["bytes"])
	}
	add("service.outside_ms", median(outside), "ms", len(outside))
	enc := all.named("service.encode")
	add("service.encode_ms", all.selfMs("service.encode")/float64(len(enc)), "ms", len(enc))
	add("service.response_bytes", mean(respBytes), "bytes", len(respBytes))
	add("service.shed", float64(r.stats1.Shed-r.stats0.Shed), "count", 1)
	gets, puts := all.named("store.get"), all.named("store.put")
	add("store.get_us", 1000*all.selfMs("store.get")/float64(len(gets)), "us", len(gets))
	add("store.put_us", 1000*all.selfMs("store.put")/float64(len(puts)), "us", len(puts))
	hits := float64(r.stats1.Cache.Hits - r.stats0.Cache.Hits)
	misses := float64(r.stats1.Cache.Misses - r.stats0.Cache.Misses)
	add("store.hit_ratio", hits/(hits+misses), "ratio", int(hits+misses))
	var events, sse, stream []float64
	for _, s := range all.named("http.job.stream") {
		events = append(events, s.Counts["events"])
		sse = append(sse, s.Counts["bytes"])
		stream = append(stream, ms(s.Dur()))
	}
	add("jobs.events", mean(events), "count", len(events))
	add("jobs.sse_bytes", mean(sse), "bytes", len(sse))
	add("jobs.stream_ms", median(stream), "ms", len(stream))

	var attempts []float64
	for _, o := range r.all() {
		if o.s != nil && !o.s.cached {
			attempts = append(attempts, float64(o.s.attempts))
		}
	}
	add("gen.attempts", mean(attempts), "count", len(attempts))

	var late []float64
	ops := 0
	for _, o := range append(append([]opResult(nil), r.sync...), r.jobs...) {
		late = append(late, ms(o.t.late()))
		if o.t.err == nil {
			ops++
		}
	}
	if v, ok := percentile(late, 0.99); ok {
		add("loadgen.late_p99_ms", v, "ms", len(late))
	} else {
		mx := 0.0
		for _, x := range late {
			mx = max(mx, x)
		}
		out = append(out, metric{name: "loadgen.late_p99_ms", value: mx, unit: "ms", n: len(late),
			note: "maximum: too few samples for p99, so its upper bound"})
	}
	add("loadgen.achieved_rps", float64(ops)/r.window.Seconds(), "1/s", ops)

	// The traced in-process pipeline against the daemon's untraced
	// elapsed_ms for computing the same designs (a design served cold
	// several times counts once, at its mean).
	elapsed := map[int][]float64{}
	for _, o := range r.all() {
		if o.s != nil && !o.s.cached && inList[r.design(o.s.design).ID] {
			elapsed[o.s.design] = append(elapsed[o.s.design], o.s.elapsedMs)
		}
	}
	var serverMs float64
	for _, xs := range elapsed {
		serverMs += mean(xs)
	}
	add("trace.overhead_pct", 100*(pipeMs-serverMs)/serverMs, "%", nd)
	return out, nil
}

// traceServiceLayer times, for one served response per design, the
// service's JSON encode of the response (as its handlers write it) and
// the store round trip a cache fill and a hit make (encode + Mem.Put,
// Mem.Get + decode).
func (r *benchRun) traceServiceLayer() error {
	seen := map[int]bool{}
	mem := store.NewMem(256, nil)
	ctx := context.Background()
	for _, o := range r.all() {
		if o.s == nil || o.s.body == nil || seen[o.s.design] {
			continue
		}
		seen[o.s.design] = true
		id := r.design(o.s.design).ID
		var resp service.ResponseV2
		if err := json.Unmarshal(o.s.body, &resp); err != nil {
			return fmt.Errorf("%s: decode served response: %w", id, err)
		}
		sp := r.tr.Start("service.encode", id, 0)
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(&resp); err != nil {
			return err
		}
		r.tr.End(sp, map[string]float64{"bytes": float64(buf.Len())})

		sp = r.tr.Start("store.put", id, 0)
		val, err := json.Marshal(resp)
		if err == nil {
			err = mem.Put(ctx, id, val)
		}
		r.tr.End(sp, nil)
		if err != nil {
			return err
		}
		sp = r.tr.Start("store.get", id, 0)
		got, hit, err := mem.Get(ctx, id)
		var back service.ResponseV2
		if err == nil && hit {
			err = json.Unmarshal(got, &back)
		}
		r.tr.End(sp, nil)
		if err != nil || !hit {
			return fmt.Errorf("%s: store round trip: hit=%t err=%v", id, hit, err)
		}
	}
	return nil
}
