package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed Prometheus sample: a metric name plus its
// sorted label pairs.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// key renders the sample identity as name{k="v",...} with sorted keys.
func (s promSample) key() string {
	if len(s.labels) == 0 {
		return s.name
	}
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		keys = append(keys, k)
	}
	// insertion sort (tiny label sets)
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, s.labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// parsePromText parses Prometheus text exposition format strictly:
// every non-comment line must be `name[{labels}] value`, every sample's
// family must have been announced by # TYPE, and histogram bucket
// series must be cumulative. Returns samples keyed by identity.
func parsePromText(t *testing.T, body string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := parsePromLine(t, line)
		base := sp.name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(sp.name, suffix); fam != sp.name && types[fam] == "histogram" {
				base = fam
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no # TYPE announcement", line)
		}
		k := sp.key()
		if _, dup := out[k]; dup {
			t.Fatalf("duplicate sample %q", k)
		}
		out[k] = sp.value
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func parsePromLine(t *testing.T, line string) promSample {
	t.Helper()
	sp := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		sp.name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			t.Fatalf("malformed labels in %q", line)
		}
		for _, kv := range strings.Split(rest[i+1:j], ",") {
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				t.Fatalf("malformed label %q in %q", kv, line)
			}
			val, err := strconv.Unquote(kv[eq+1:])
			if err != nil {
				t.Fatalf("unquotable label value %q in %q: %v", kv, line, err)
			}
			sp.labels[kv[:eq]] = val
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		f := strings.Fields(rest)
		if len(f) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		sp.name, rest = f[0], f[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("unparsable value in %q: %v", line, err)
	}
	sp.value = v
	return sp
}

// TestMetricsEndpoint drives real traffic (a fresh generate, a cache
// hit, a rejected workload) and asserts /metrics is well-formed
// Prometheus text carrying per-stage latency histograms plus cache,
// outcome and panic counters — and that the numbers agree exactly with
// /v1/stats, the single-source-of-truth acceptance gate.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 8})

	req := Request{Workload: "fig61", Format: FormatSummary, Options: GenOptions{PartSize: 6, BoxSize: 6}}
	for i := 0; i < 2; i++ { // second request hits the cache
		if resp, body := postJSON(t, ts.URL+"/v1/generate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate status %d: %s", resp.StatusCode, body)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/generate", Request{Workload: "nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad workload status = %d, want 400", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	samples := parsePromText(t, readAll(t, mr))

	// Per-stage histograms: count > 0 for every pipeline stage, and the
	// +Inf bucket equals the count (cumulative buckets).
	for _, stage := range []string{"parse", "place", "route", "render", "total"} {
		count := samples[fmt.Sprintf(`netart_stage_duration_seconds_count{stage=%q}`, stage)]
		if count == 0 {
			t.Errorf("stage %q histogram has zero observations", stage)
		}
		inf := samples[fmt.Sprintf(`netart_stage_duration_seconds_bucket{le="+Inf",stage=%q}`, stage)]
		if inf != count {
			t.Errorf("stage %q +Inf bucket = %v, want count %v", stage, inf, count)
		}
	}

	// Cache, outcome, and panic counters.
	if hits := samples[`netart_cache_events_total{event="hit"}`]; hits != 1 {
		t.Errorf("cache hits = %v, want 1", hits)
	}
	if misses := samples[`netart_cache_events_total{event="miss"}`]; misses < 1 {
		t.Errorf("cache misses = %v, want >= 1", misses)
	}
	if ok := samples[`netart_request_outcomes_total{outcome="ok"}`]; ok != 2 {
		t.Errorf("ok outcomes = %v, want 2", ok)
	}
	if _, present := samples["netart_panics_recovered_total"]; !present {
		t.Error("netart_panics_recovered_total missing from /metrics")
	}
	if _, present := samples["netart_uptime_seconds"]; !present {
		t.Error("netart_uptime_seconds missing from /metrics")
	}

	// Single source of truth: /v1/stats must report the same numbers
	// the Prometheus surface exports.
	stats := s.Stats()
	if got := samples["netart_requests_total"]; got != float64(stats.Requests) {
		t.Errorf("requests: /metrics %v vs /v1/stats %d", got, stats.Requests)
	}
	if got := samples[`netart_request_outcomes_total{outcome="ok"}`]; got != float64(stats.OK) {
		t.Errorf("ok: /metrics %v vs /v1/stats %d", got, stats.OK)
	}
	if got := samples[`netart_cache_events_total{event="hit"}`]; got != float64(stats.Cache.Hits) {
		t.Errorf("cache hits: /metrics %v vs /v1/stats %d", got, stats.Cache.Hits)
	}
	for _, stage := range []string{"place", "route", "total"} {
		got := samples[fmt.Sprintf(`netart_stage_duration_seconds_count{stage=%q}`, stage)]
		if got != float64(stats.Stages[stage].Count) {
			t.Errorf("stage %q count: /metrics %v vs /v1/stats %d", stage, got, stats.Stages[stage].Count)
		}
	}
}

func readAll(t *testing.T, r *http.Response) string {
	t.Helper()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}

// TestV2GenerateReportAndTraceHeader asserts /v2/generate embeds the
// full generation report — stage timings, routing attempts, search
// counters, span tree — and stamps X-Netart-Trace-Id to match it.
func TestV2GenerateReportAndTraceHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 0})

	httpResp, body := postJSON(t, ts.URL+"/v2/generate", Request{
		Workload: "fig61", Format: FormatASCII, Options: GenOptions{PartSize: 6, BoxSize: 6}})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, body)
	}
	var v2 ResponseV2
	if err := json.Unmarshal(body, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Report.Timings.Place <= 0 || v2.Report.Timings.Route <= 0 {
		t.Errorf("report timings not filled: %+v", v2.Report.Timings)
	}
	if len(v2.Report.Attempts) == 0 {
		t.Error("report carries no routing attempts")
	}
	if v2.Report.Search.Searches == 0 {
		t.Errorf("report search counters empty: %+v", v2.Report.Search)
	}
	tr := v2.Report.Trace
	if tr == nil || tr.TraceID == "" {
		t.Fatal("report carries no trace")
	}
	for _, stage := range []string{"request", "parse", "place", "route", "render"} {
		if tr.Find(stage) == nil {
			t.Errorf("span %q missing from trace tree", stage)
		}
	}
	if got := httpResp.Header.Get("X-Netart-Trace-Id"); got != tr.TraceID {
		t.Errorf("trace header = %q, want %q", got, tr.TraceID)
	}

	// The raw /v2 body has a "report" object; /v1 must not.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["report"]; !ok {
		t.Error(`/v2 body missing "report"`)
	}

	v1Resp, v1Body := postJSON(t, ts.URL+"/v1/generate", Request{
		Workload: "fig61", Format: FormatASCII, Options: GenOptions{PartSize: 6, BoxSize: 6}})
	if v1Resp.StatusCode != http.StatusOK {
		t.Fatalf("v1 status %d: %s", v1Resp.StatusCode, v1Body)
	}
	if v1Resp.Header.Get("X-Netart-Trace-Id") == "" {
		t.Error("v1 response missing trace header")
	}
	var rawV1 map[string]json.RawMessage
	if err := json.Unmarshal(v1Body, &rawV1); err != nil {
		t.Fatal(err)
	}
	if _, ok := rawV1["report"]; ok {
		t.Error(`/v1 body unexpectedly carries "report"`)
	}
	for _, key := range []string{"stages", "diagram", "metrics", "cache_key"} {
		if _, ok := rawV1[key]; !ok {
			t.Errorf("/v1 body missing %q", key)
		}
	}
}

// TestV1V2AdapterEquivalence asserts the v1 shape is exactly the v2
// response minus the report: same diagram, metrics, cache key, and the
// v1 "stages" equal the v2 report timings — the adapter cannot drift
// because it is derived, and this test pins the derivation.
func TestV1V2AdapterEquivalence(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 0})
	defer s.Close()

	v2, err := s.GenerateV2(context.Background(), &Request{
		Workload: "datapath", Format: FormatSummary})
	if err != nil {
		t.Fatal(err)
	}
	v1 := v2.V1()
	if v1.Name != v2.Name || v1.Format != v2.Format || v1.Diagram != v2.Diagram {
		t.Error("identity fields differ between v1 and v2")
	}
	if !reflect.DeepEqual(v1.Metrics, v2.Metrics) {
		t.Errorf("metrics differ: %+v vs %+v", v1.Metrics, v2.Metrics)
	}
	if v1.Unrouted != v2.Unrouted || v1.Cached != v2.Cached || v1.CacheKey != v2.CacheKey {
		t.Error("routing/cache fields differ between v1 and v2")
	}
	if v1.ElapsedMs != v2.ElapsedMs {
		t.Errorf("elapsed differs: %v vs %v", v1.ElapsedMs, v2.ElapsedMs)
	}
	if v1.Stages != v2.Report.Timings {
		t.Errorf("v1 stages %+v != v2 report timings %+v", v1.Stages, v2.Report.Timings)
	}
	if !reflect.DeepEqual(v1.Degraded, v2.Report.Degraded) {
		t.Errorf("degraded blocks differ: %+v vs %+v", v1.Degraded, v2.Report.Degraded)
	}
}

// TestBatchV2 exercises /v2/batch: good items carry reports with
// traces, bad items carry per-item errors, order is preserved.
func TestBatchV2(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 0})

	httpResp, body := postJSON(t, ts.URL+"/v2/batch", BatchRequest{
		Requests: []Request{
			{Workload: "fig61", Format: FormatSummary, Options: GenOptions{PartSize: 6, BoxSize: 6}},
			{Workload: "nope"},
		},
	})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", httpResp.StatusCode, body)
	}
	var batch BatchResponseV2
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(batch.Results))
	}
	good := batch.Results[0]
	if good.Response == nil || good.Status != http.StatusOK {
		t.Fatalf("item 0 = %+v, want ok", good)
	}
	if good.Response.Report.Trace == nil {
		t.Error("batch item report carries no trace")
	}
	bad := batch.Results[1]
	if bad.Error == "" || bad.Status != http.StatusBadRequest {
		t.Errorf("item 1 = %+v, want 400 with error", bad)
	}
}

// TestPlaceWorkersMetrics: the speculation and worker-busy metric
// families went with the parallel placement and routing engines; a
// served request must not bring them back.
func TestPlaceWorkersMetrics(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 0})
	defer s.Close()
	if _, err := s.Generate(context.Background(), &Request{Workload: "datapath", Format: "summary"}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	s.obs.Reg.WritePrometheus(&sb)
	for _, family := range []string{
		"netart_route_speculation_total", "netart_route_worker_busy_seconds",
		"netart_place_speculation_total", "netart_place_worker_busy_seconds",
	} {
		if strings.Contains(sb.String(), family) {
			t.Errorf("deleted metric family %s is still exported", family)
		}
	}
}
