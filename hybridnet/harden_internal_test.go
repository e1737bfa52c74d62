package hybridnet

// White-box hardening coverage: states the public surface cannot hold
// still, pinned by occupying the shared worker pool directly.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestServerResultsErrors: every fallible step of the results endpoint
// answers a proper JSON status before the first body byte — bad format
// 400, unknown sweep 404, still-running 409 — and the Content-Type
// comes from the experiments format table. A gated task holds the
// single pool worker, so the sweep stays running until the 409 is
// checked.
func TestServerResultsErrors(t *testing.T) {
	srv, err := NewServer(ServerConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	started := make(chan struct{})
	go srv.pool.Run([]func(){func() { close(started); <-gate }})
	<-started
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := srv.Submit(SweepRequest{Scenario: "nq", Families: []string{"path"}, N: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Still running: 409, as JSON, not a truncated stream.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sweeps/"+st.ID+"/results", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("results of running sweep: code %d, want 409", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("409 Content-Type = %q", ct)
	}

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/sweeps/" + st.ID + "/results?format=xml", http.StatusBadRequest},
		{"/v1/sweeps/sw-nope/results", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: body is not the JSON error document (%v)", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: code %d, want %d", tc.path, resp.StatusCode, tc.code)
		}
	}

	release()
	if _, err := srv.Wait(st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Fatalf("csv Content-Type = %q", ct)
	}
}
