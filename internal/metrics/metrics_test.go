package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterAndGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.", L{"endpoint", "submit"})
	c.Inc()
	c.Add(2)
	r.GaugeFunc("pool_depth", "Queued tasks.", func() float64 { return 7 })

	out := render(t, r)
	for _, want := range []string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		`requests_total{endpoint="submit"} 3`,
		"# TYPE pool_depth gauge",
		"pool_depth 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("responses_total", "Responses by code.", "endpoint", "code")
	v.With("submit", "200").Add(5)
	v.With("submit", "429").Inc()
	if v.With("submit", "200") != v.With("submit", "200") {
		t.Fatal("With is not stable for identical label values")
	}
	out := render(t, r)
	if !strings.Contains(out, `responses_total{endpoint="submit",code="200"} 5`) ||
		!strings.Contains(out, `responses_total{endpoint="submit",code="429"} 1`) {
		t.Errorf("vec series missing:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 1, 10}, L{"endpoint", "results"})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-56.05) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
	out := render(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{endpoint="results",le="0.1"} 1`,
		`latency_seconds_bucket{endpoint="results",le="1"} 3`,
		`latency_seconds_bucket{endpoint="results",le="10"} 4`,
		`latency_seconds_bucket{endpoint="results",le="+Inf"} 5`,
		`latency_seconds_sum{endpoint="results"} 56.05`,
		`latency_seconds_count{endpoint="results"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestConcurrentUse drives every type from several goroutines; run
// under -race this certifies the atomics.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	v := r.CounterVec("v_total", "v", "k")
	h := r.Histogram("h_seconds", "h", nil)
	r.GaugeFunc("g", "g", func() float64 { return float64(c.Value()) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				v.With("a").Inc()
				h.Observe(float64(j) / 1000)
			}
		}(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b strings.Builder
			r.WriteText(&b)
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || v.With("a").Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d v=%d h=%d", c.Value(), v.With("a").Value(), h.Count())
	}
}
