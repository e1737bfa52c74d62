package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
)

// startServer runs the binary's run() on an ephemeral port and returns
// the base URL plus a shutdown function that triggers the graceful
// path and waits for run to return.
func startServer(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), pw)
		pw.Close()
		done <- err
	}()
	scanner := bufio.NewScanner(pr)
	if !scanner.Scan() {
		cancel()
		t.Fatalf("server produced no output: %v", <-done)
	}
	line := scanner.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		cancel()
		t.Fatalf("unexpected first line %q", line)
	}
	url := "http://" + line[i+len(marker):]
	go func() { // drain the rest of the pipe so run never blocks on it
		io.Copy(io.Discard, pr)
	}()
	return url, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(30 * time.Second):
			return fmt.Errorf("shutdown timed out")
		}
	}
}

// TestSmoke is the CI smoke contract: start the server, list the
// scenarios, run one sweep end to end, shut down gracefully.
func TestSmoke(t *testing.T) {
	url, shutdown := startServer(t)

	resp, err := http.Get(url + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"table1"`) {
		t.Fatalf("scenarios: code=%d body=%s", resp.StatusCode, body)
	}

	resp, err = http.Post(url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"scenario":"nq","families":["path"],"n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: code=%d %+v", resp.StatusCode, st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State == "running" {
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish in time")
		}
		r, err := http.Get(url + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != "done" {
		t.Fatalf("sweep state %q: %s", st.State, st.Error)
	}

	r, err := http.Get(url + "/v1/sweeps/" + st.ID + "/results?format=md")
	if err != nil {
		t.Fatal(err)
	}
	md, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK || !strings.Contains(string(md), "| family |") {
		t.Fatalf("results: code=%d body=%s", r.StatusCode, md)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestSmokeRepeatSweepIsCached asserts the serving-layer acceptance
// criterion over real HTTP: the same sweep submitted twice (second time
// fresh) returns byte-identical markdown with every cell of the rerun
// served by the result cache.
func TestSmokeRepeatSweepIsCached(t *testing.T) {
	url, shutdown := startServer(t)
	defer shutdown()

	submit := func(body string) (id string) {
		t.Helper()
		resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return st.ID
	}
	wait := func(id string) (cells, cached int) {
		t.Helper()
		for {
			r, err := http.Get(url + "/v1/sweeps/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State  string `json:"state"`
				Cells  int    `json:"cells"`
				Cached int    `json:"cached_cells"`
				Error  string `json:"error"`
			}
			if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if st.State == "failed" {
				t.Fatalf("sweep failed: %s", st.Error)
			}
			if st.State == "done" {
				return st.Cells, st.Cached
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	get := func(id string) string {
		t.Helper()
		r, err := http.Get(url + "/v1/sweeps/" + id + "/results?format=md")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return string(body)
	}

	req := `{"scenario":"nq","families":["path","cycle"],"n":64}`
	id := submit(req)
	wait(id)
	cold := get(id)

	id2 := submit(`{"scenario":"nq","families":["path","cycle"],"n":64,"fresh":true}`)
	if id2 != id {
		t.Fatalf("content address changed: %s vs %s", id2, id)
	}
	cells, cached := wait(id2)
	if cells == 0 || float64(cached)/float64(cells) < 0.9 {
		t.Fatalf("rerun served %d/%d cells from cache, want ≥ 90%%", cached, cells)
	}
	if warm := get(id2); warm != cold {
		t.Fatalf("rerun results differ:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestSmokeMetricsAndRateLimit: the hardening flags work end to end —
// an over-burst submission answers 429 with Retry-After, and /metrics
// serves the Prometheus text exposition counting the shed.
func TestSmokeMetricsAndRateLimit(t *testing.T) {
	url, shutdown := startServer(t, "-rate", "0.001", "-burst", "1")
	defer shutdown()

	resp, err := http.Post(url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"scenario":"nq","families":["path"],"n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: code=%d", resp.StatusCode)
	}
	resp, err = http.Post(url+"/v1/sweeps", "application/json",
		strings.NewReader(`{"scenario":"nq","families":["cycle"],"n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst submit: code=%d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	r, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: code=%d", r.StatusCode)
	}
	for _, want := range []string{
		`hybridd_admission_shed_total{reason="rate"} 1`,
		"# TYPE hybridd_http_request_seconds histogram",
		"hybridd_pool_workers",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestUsage pins the shared cliutil -h shape.
func TestUsage(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-h"}, &buf); err != nil {
		t.Fatalf("-h: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "-addr") {
		t.Errorf("usage missing -addr:\n%s", out)
	}
	if err := cliutil.VerifyUsageText("hybridd", out); err != nil {
		t.Errorf("usage text invalid: %v\n%s", err, out)
	}
}

// TestBadFlag: unknown flags fail run with an error.
func TestBadFlag(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-nosuch"}, &buf); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}
