package service

import (
	"context"
	"strings"
	"testing"
)

// Tests for the deprecated route_workers, place_workers and
// route_window request options. They are accepted and ignored so older
// clients keep working: a request carrying them must share the cache
// key, the cache entry and the exact bytes of one without them, while
// malformed values are still rejected.

// assertIgnored renders workload without and then with the given
// deprecated options, each on its own cache-less server, and requires
// the same cache key, diagram and unrouted count.
func assertIgnored(t *testing.T, workload string, opts GenOptions) {
	t.Helper()
	run := func(o GenOptions) *Response {
		s := New(Config{Workers: 1, CacheEntries: 0, VerifyRouting: true})
		defer s.Close()
		resp, err := s.Generate(context.Background(),
			&Request{Workload: workload, Format: "ascii", Options: o})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	plain, with := run(GenOptions{}), run(opts)
	if with.CacheKey != plain.CacheKey {
		t.Errorf("%+v: cache key %s != %s", opts, with.CacheKey, plain.CacheKey)
	}
	if with.Diagram != plain.Diagram {
		t.Errorf("%+v: diagram diverges", opts)
	}
	if with.Unrouted != plain.Unrouted {
		t.Errorf("%+v: unrouted %d != %d", opts, with.Unrouted, plain.Unrouted)
	}
}

// TestDeprecatedOptionsIgnored covers route_window and a request
// carrying all three deprecated options; the worker knobs alone are
// swept by the two tests below.
func TestDeprecatedOptionsIgnored(t *testing.T) {
	cases := []struct {
		name string
		opts GenOptions
	}{
		{"route_window_on", GenOptions{RouteWindow: "on"}},
		{"route_window_off", GenOptions{RouteWindow: "off"}},
		{"all", GenOptions{RouteWorkers: 4, PlaceWorkers: 2, RouteWindow: "off"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertIgnored(t, "datapath", tc.opts)
		})
	}
}

func TestRouteWorkersByteIdenticalResponse(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		assertIgnored(t, "datapath", GenOptions{RouteWorkers: w})
	}
}

func TestPlaceWorkersByteIdenticalResponse(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		assertIgnored(t, "datapath", GenOptions{PlaceWorkers: w})
	}
}

// assertSharesCacheEntry: a request carrying deprecated options after
// an identical plain one must be served from the plain one's entry.
func assertSharesCacheEntry(t *testing.T, workload string, opts GenOptions) {
	t.Helper()
	s := New(Config{Workers: 1, CacheEntries: 16})
	defer s.Close()
	ctx := context.Background()
	plain, err := s.Generate(ctx, &Request{Workload: workload, Format: "ascii"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cached {
		t.Fatal("first request reported cached")
	}
	with, err := s.Generate(ctx, &Request{Workload: workload, Format: "ascii", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Cached {
		t.Errorf("%+v: request missed the cache", opts)
	}
	if with.Diagram != plain.Diagram {
		t.Errorf("%+v: cached response diverges", opts)
	}
}

func TestRouteWorkersSharesCacheEntry(t *testing.T) {
	assertSharesCacheEntry(t, "fig61", GenOptions{RouteWorkers: 4})
}

func TestPlaceWorkersSharesCacheEntry(t *testing.T) {
	assertSharesCacheEntry(t, "quickstart", GenOptions{PlaceWorkers: 4})
	assertSharesCacheEntry(t, "quickstart", GenOptions{PlaceWorkers: 2, RouteWorkers: 2, RouteWindow: "on"})
}

// assertRejected pins the 400 on a malformed deprecated value.
func assertRejected(t *testing.T, opts GenOptions) {
	t.Helper()
	s := New(Config{Workers: 1})
	defer s.Close()
	_, err := s.Generate(context.Background(), &Request{Workload: "fig61", Options: opts})
	se, ok := err.(*svcError)
	if !ok || se.status != 400 {
		t.Fatalf("%+v: got %v, want 400 svcError", opts, err)
	}
}

func TestRouteWorkersRejectsNegative(t *testing.T) {
	assertRejected(t, GenOptions{RouteWorkers: -2})
}

func TestPlaceWorkersRejectsNegative(t *testing.T) {
	assertRejected(t, GenOptions{PlaceWorkers: -2})
	assertRejected(t, GenOptions{RouteWindow: "sideways"})
}

// TestPlaceWorkersMetrics: the speculation and worker-busy metric
// families went with the parallel engines; a request carrying the
// deprecated knobs must not bring them back.
func TestPlaceWorkersMetrics(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 0})
	defer s.Close()
	if _, err := s.Generate(context.Background(), &Request{Workload: "datapath", Format: "summary",
		Options: GenOptions{PlaceWorkers: 4, RouteWorkers: 4}}); err != nil {
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
