package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("er_test_ops_total", "ops", L("kind", "a"))
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves the same series.
	if again := r.Counter("er_test_ops_total", "ops", L("kind", "a")); again.Value() != 5 {
		t.Fatalf("re-resolved counter = %d, want 5", again.Value())
	}
	// Different label value is a different series.
	if other := r.Counter("er_test_ops_total", "ops", L("kind", "b")); other.Value() != 0 {
		t.Fatalf("sibling series = %d, want 0", other.Value())
	}

	g := r.Gauge("er_test_depth", "depth")
	g.Set(3.5)
	g.Add(1.5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	r.GaugeFunc("er_test_fn", "fn", func() float64 { return 42 })
	fam, ok := r.Family("er_test_fn")
	if !ok || len(fam.Series) != 1 || fam.Series[0].Value != 42 {
		t.Fatalf("gauge func family = %+v", fam)
	}
}

func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(3)
	g := r.Gauge("y", "")
	g.Set(1)
	g.Add(1)
	h := r.Histogram("z", "", nil)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	r.CounterFunc("cf", "", func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil registry metrics must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := r.WritePrometheus(discard{}); err != nil {
		t.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("er_test_latency_seconds", "lat", []float64{0.01, 0.1, 1})
	for i := 0; i < 50; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 40; i++ {
		h.Observe(0.05) // second bucket
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.5) // third bucket
	}
	h.Observe(10) // overflow

	hs := h.Snapshot()
	if hs.Count != 100 {
		t.Fatalf("count = %d, want 100", hs.Count)
	}
	wantCounts := []int64{50, 40, 9, 1}
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, hs.Counts[i], w)
		}
	}
	if math.Abs(hs.Sum-(50*0.005+40*0.05+9*0.5+10)) > 1e-9 {
		t.Fatalf("sum = %v", hs.Sum)
	}
	p50 := hs.Quantile(0.50)
	if p50 <= 0 || p50 > 0.01 {
		t.Fatalf("p50 = %v, want within first bucket (0, 0.01]", p50)
	}
	p90 := hs.Quantile(0.90)
	if p90 <= 0.01 || p90 > 0.1 {
		t.Fatalf("p90 = %v, want within second bucket (0.01, 0.1]", p90)
	}
	p99 := hs.Quantile(0.99)
	if p99 <= 0.1 || p99 > 1 {
		t.Fatalf("p99 = %v, want within third bucket (0.1, 1]", p99)
	}
	if hs.Quantile(0.9999) != 1 {
		t.Fatalf("overflow quantile = %v, want lower bound 1", hs.Quantile(0.9999))
	}
	if mean := hs.Mean(); math.Abs(mean-hs.Sum/100) > 1e-12 {
		t.Fatalf("mean = %v", mean)
	}
}

// TestQuantileClampsToObservedRange is the regression test for
// quantiles above every observed sample: bucket interpolation placed a
// lone 11.9 s shepherd sample's p99 near the top of its (6.6 s, 19.7 s]
// bucket. Estimates must stay inside the observed [min, max].
func TestQuantileClampsToObservedRange(t *testing.T) {
	r := New()
	h := r.Histogram("er_test_shepherd_seconds", "", nil)
	h.Observe(11.9)
	hs := h.Snapshot()
	if hs.Min != 11.9 || hs.Max != 11.9 {
		t.Fatalf("min/max = %v/%v, want 11.9/11.9", hs.Min, hs.Max)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		if got := hs.Quantile(q); got != 11.9 {
			t.Errorf("p%v = %v from a single 11.9 s sample", q*100, got)
		}
	}

	// A spread of samples: every quantile lies within [min, max].
	h = r.Histogram("er_test_spread_seconds", "", nil)
	for _, v := range []float64{0.3, 0.4, 2.5, 7, 11.9} {
		h.Observe(v)
	}
	hs = h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		if got := hs.Quantile(q); got < 0.3 || got > 11.9 {
			t.Errorf("p%v = %v outside the observed [0.3, 11.9]", q*100, got)
		}
	}
	if empty := r.Histogram("er_test_empty_seconds", "", nil).Snapshot(); empty.Min != 0 || empty.Max != 0 || empty.Quantile(0.5) != 0 {
		t.Errorf("empty histogram: %+v", empty)
	}
}

func TestObserveDurationClampsNegative(t *testing.T) {
	r := New()
	h := r.Histogram("er_test_neg_seconds", "", []float64{1})
	h.ObserveDuration(-5 * time.Second)
	hs := h.Snapshot()
	if hs.Count != 1 || hs.Sum != 0 {
		t.Fatalf("negative duration must clamp to 0: %+v", hs)
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"er_core_ops_total": "er_core_ops_total",
		"er.core.ops":       "er_core_ops",
		"0bad":              "_bad", // leading digit illegal
		"with space":        "with_space",
		"":                  "_",
		"π":                 "__", // two UTF-8 bytes, each replaced
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistryConcurrency hammers registration and mutation from many
// goroutines; run under -race it is the registry's thread-safety
// regression.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	names := []string{"er_a_total", "er_b_total", "er_c_seconds", "er_d_depth"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter(names[0], "", L("g", "x")).Inc()
				r.Counter(names[1], "").Add(2)
				r.Histogram(names[2], "", nil).Observe(float64(i) * 1e-4)
				r.Gauge(names[3], "").Set(float64(i))
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = r.WritePrometheus(discard{})
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter(names[0], "", L("g", "x")).Value(); got != 8*500 {
		t.Fatalf("racy counter = %d, want %d", got, 8*500)
	}
	if got := r.Counter(names[1], "").Value(); got != 8*500*2 {
		t.Fatalf("racy counter add = %d, want %d", got, 8*500*2)
	}
	hs := r.Histogram(names[2], "", nil).Snapshot()
	if hs.Count != 8*500 {
		t.Fatalf("racy histogram count = %d, want %d", hs.Count, 8*500)
	}
}

func TestLabelOrderInsensitive(t *testing.T) {
	r := New()
	a := r.Counter("er_t_total", "", L("x", "1"), L("y", "2"))
	b := r.Counter("er_t_total", "", L("y", "2"), L("x", "1"))
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("label order must not create distinct series")
	}
}
