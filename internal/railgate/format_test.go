package railgate

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"photonrail/internal/resultstore"
)

// TestSubmitFormatRequested pins which requests ask the backend for one
// rendering: a synchronous request to a gateway without a store asks
// for exactly the negotiated format; async requests and store-backed
// gateways ask for all three ("").
func TestSubmitFormatRequested(t *testing.T) {
	_, fr, srv := newTestGateway(t, Config{})
	for _, tc := range []struct {
		path, accept string
	}{
		{"/v1/experiments/eq1", "text/csv"},
		{"/v1/experiments/eq1?format=text", ""},
		{"/v1/experiments/eq1?format=table", ""},
		{"/v1/experiments/eq1", ""},
		{"/v1/experiments/eq1?async=1", "text/csv"},
	} {
		hdr := map[string]string{}
		if tc.accept != "" {
			hdr["Accept"] = tc.accept
		}
		readBody(t, post(t, srv, tc.path, "", "", hdr))
	}
	waitCalls(t, fr, 5)
	if got, want := fr.requested(), []string{"csv", "table", "table", "json", ""}; !reflect.DeepEqual(got, want) {
		t.Fatalf("no-store formats requested = %q, want %q", got, want)
	}

	store, err := resultstore.Open(resultstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, sfr, ssrv := newTestGateway(t, Config{Store: store})
	resp := post(t, ssrv, "/v1/experiments/eq1", "", "", map[string]string{"Accept": "text/csv"})
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || body != "col\neq1\n" {
		t.Fatalf("store-backed sync: status %d, body %q", resp.StatusCode, body)
	}
	// The stored entry holds every rendering, so a later request in
	// another format is a store hit.
	resp = post(t, ssrv, "/v1/experiments/eq1", "", "", nil)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || body != `{"experiment":"eq1"}` {
		t.Fatalf("store hit in another format: status %d, body %q", resp.StatusCode, body)
	}
	if got, want := sfr.requested(), []string{""}; !reflect.DeepEqual(got, want) {
		t.Fatalf("store-backed formats requested = %q, want %q", got, want)
	}
}

// waitCalls waits for the runner to have been invoked n times (async
// runs invoke it after the 202).
func waitCalls(t *testing.T, fr *fakeRunner, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fr.calls.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("runner calls = %d, want %d", fr.calls.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnknownFormatRefusedBeforeWork: an unknown ?format= answers 406
// before the request takes a rate-limit token, enters the fair queue,
// or reaches the runner.
func TestUnknownFormatRefusedBeforeWork(t *testing.T) {
	now := time.Unix(3000, 0)
	g, fr, srv := newTestGateway(t, Config{
		Tenants: map[string]TenantLimits{"t": {RatePerSec: 0.001, Burst: 1}},
		Now:     func() time.Time { return now },
	})
	for _, path := range []string{"/v1/experiments/eq1?format=yaml", "/v1/experiments/eq1?format=yaml&async=1"} {
		resp := post(t, srv, path, "t", "", nil)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusNotAcceptable || !strings.Contains(body, "unknown format") {
			t.Fatalf("POST %s: status %d, body %q; want 406", path, resp.StatusCode, body)
		}
	}
	if got := fr.calls.Load(); got != 0 {
		t.Fatalf("runner calls = %d, want 0", got)
	}
	for _, ev := range g.Telemetry().Events.Snapshot() {
		if ev.Type == evSubmitted || ev.Type == evRejected || ev.Type == evStarted {
			t.Fatalf("refused format reached admission: event %+v", ev)
		}
	}
	// The tenant's single token is still there.
	resp := post(t, srv, "/v1/experiments/eq1?format=csv", "t", "", nil)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || body != "col\neq1\n" {
		t.Fatalf("first valid request: status %d, body %q; a refused format must not spend the token", resp.StatusCode, body)
	}
}

// TestRetainedRunHeldFormat: a retained synchronous run rendered for one
// format answers GET /v1/runs/{id} in that format, and any other
// format with 406 naming the one it holds — never 200 with an empty
// body.
func TestRetainedRunHeldFormat(t *testing.T) {
	_, _, srv := newTestGateway(t, Config{})
	resp := post(t, srv, "/v1/experiments/eq1?format=csv", "", "", nil)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK || body != "col\neq1\n" {
		t.Fatalf("submit: status %d, body %q", resp.StatusCode, body)
	}
	id := resp.Header.Get("Railgate-Run")
	get := func(query string, hdr map[string]string) (int, string) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/runs/"+id+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		r, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, readBody(t, r)
	}
	if code, body := get("?format=csv", nil); code != http.StatusOK || body != "col\neq1\n" {
		t.Fatalf("held format: status %d, body %q", code, body)
	}
	if code, body := get("", map[string]string{"Accept": "text/csv"}); code != http.StatusOK || body != "col\neq1\n" {
		t.Fatalf("held format via Accept: status %d, body %q", code, body)
	}
	for _, query := range []string{"?format=json", "?format=table", ""} {
		code, body := get(query, nil)
		var env struct{ Error string }
		if code != http.StatusNotAcceptable || json.Unmarshal([]byte(body), &env) != nil || !strings.Contains(env.Error, "csv") {
			t.Fatalf("GET %s: status %d, body %q; want 406 naming csv", query, code, body)
		}
	}
}
