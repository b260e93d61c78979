package service

import (
	"net/http"
	"strings"
	"testing"
)

// TestRemovedOptionsRejected: the route_workers, place_workers and
// route_window request options were removed (placement and routing run
// sequentially within a request, and searches are always windowed).
// Like any unknown field they now get a 400 with the error envelope
// naming the field, whatever their value, on the sync and the async
// surface.
func TestRemovedOptionsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, path, field, value string
	}{
		{"route_workers", "/v2/generate", "route_workers", "4"},
		{"route_workers_negative", "/v1/generate", "route_workers", "-2"},
		{"place_workers", "/v2/jobs", "place_workers", "2"},
		{"place_workers_negative", "/v2/generate", "place_workers", "-2"},
		{"route_window", "/v2/generate", "route_window", `"on"`},
		{"route_window_sideways", "/v2/jobs", "route_window", `"sideways"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := `{"workload":"fig61","options":{"` + tc.field + `":` + tc.value + `}}`
			resp, out := doRaw(t, http.MethodPost, ts.URL+tc.path, body)
			checkEnvelope(t, resp, out, http.StatusBadRequest)
			if !strings.Contains(string(out), tc.field) {
				t.Errorf("error does not name %s: %s", tc.field, out)
			}
		})
	}
}
