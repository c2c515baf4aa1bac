package stats_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/stats"
)

// fillOnes sets every int64 field of a struct to 1 via reflection, so
// Add tests cannot silently miss a newly added counter.
func fillOnes(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			f.SetInt(1)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				f.Index(j).SetInt(1)
			}
		}
	}
}

// checkAllTwos verifies every int64 field equals 2 after a self-Add.
func checkAllTwos(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	typ := v.Type()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int64:
			if f.Int() != 2 {
				t.Errorf("%s.%s = %d after Add, want 2", name, typ.Field(i).Name, f.Int())
			}
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				if f.Index(j).Int() != 2 {
					t.Errorf("%s.%s[%d] = %d after Add, want 2", name, typ.Field(i).Name, j, f.Index(j).Int())
				}
			}
		}
	}
}

// TestAddAccumulatesEveryField folds a struct of ones into a copy of
// itself and demands every counter doubles — for Match, Contention and
// Server alike.
func TestAddAccumulatesEveryField(t *testing.T) {
	var m, mo stats.Match
	fillOnes(reflect.ValueOf(&m).Elem())
	fillOnes(reflect.ValueOf(&mo).Elem())
	m.Add(&mo)
	checkAllTwos(t, reflect.ValueOf(m), "Match")

	var c, co stats.Contention
	fillOnes(reflect.ValueOf(&c).Elem())
	fillOnes(reflect.ValueOf(&co).Elem())
	c.Add(&co)
	checkAllTwos(t, reflect.ValueOf(c), "Contention")
}

// TestConflictAddSub checks the conflict-set counters fold like the
// others: Add doubles every field of a struct of ones, and Sub of an
// earlier reading leaves the per-session delta.
func TestConflictAddSub(t *testing.T) {
	var c, co stats.Conflict
	fillOnes(reflect.ValueOf(&c).Elem())
	fillOnes(reflect.ValueOf(&co).Elem())
	c.Add(&co)
	checkAllTwos(t, reflect.ValueOf(c), "Conflict")

	var cur, prev stats.Conflict
	fillOnes(reflect.ValueOf(&cur).Elem())
	prev = cur
	cur.Inserts, cur.Live = 5, 3
	delta := cur
	delta.Sub(&prev)
	want := stats.Conflict{Inserts: 4, Live: 2}
	if delta != want {
		t.Fatalf("delta = %+v, want %+v", delta, want)
	}
}

// TestZeroValues checks the zero values are usable: Add of zeros is a
// no-op, the zero histogram reports empty summaries.
func TestZeroValues(t *testing.T) {
	var m, zero stats.Match
	m.Add(&zero)
	if m != (stats.Match{}) {
		t.Errorf("zero Add mutated Match: %+v", m)
	}
	var h stats.Histogram
	if h.Quantile(0.99) != 0 || h.MeanUs() != 0 {
		t.Errorf("zero histogram quantile/mean nonzero")
	}
	sum := h.Summary()
	if sum.Count != 0 || sum.P99Us != 0 {
		t.Errorf("zero histogram summary = %+v", sum)
	}
	if stats.Mean(5, 0) != 0 {
		t.Errorf("Mean(x, 0) != 0")
	}
	if stats.Mean(6, 3) != 2 {
		t.Errorf("Mean(6,3) = %v", stats.Mean(6, 3))
	}
}

// TestHistogramObserveQuantile checks bucketing, quantile bounds and
// max clamping against a known distribution.
func TestHistogramObserveQuantile(t *testing.T) {
	var h stats.Histogram
	// 99 fast observations and one slow outlier.
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Microsecond)
	}
	h.Observe(50 * time.Millisecond)
	if h.Count != 100 {
		t.Fatalf("count = %d", h.Count)
	}
	if p50 := h.Quantile(0.50); p50 < 10*time.Microsecond || p50 > 16*time.Microsecond {
		t.Errorf("p50 = %v, want within (10µs, 16µs]", p50)
	}
	// p99 rank (ceil(0.99*100) = 99) still lands in the fast bucket.
	if p99 := h.Quantile(0.99); p99 > 16*time.Microsecond {
		t.Errorf("p99 = %v, want <= 16µs", p99)
	}
	// p100 is clamped to the observed max, not the bucket edge.
	if p100 := h.Quantile(1); p100 != 50*time.Millisecond {
		t.Errorf("p100 = %v, want 50ms", p100)
	}
	if h.MaxUs != 50000 {
		t.Errorf("max = %dµs", h.MaxUs)
	}
	if mean := h.MeanUs(); mean < 500 || mean > 511 {
		t.Errorf("mean = %vµs, want ~509.9", mean)
	}
}

// TestHistogramNegative checks negative durations clamp to zero
// instead of corrupting the buckets.
func TestHistogramNegative(t *testing.T) {
	var h stats.Histogram
	h.Observe(-time.Second)
	if h.Count != 1 || h.SumUs != 0 || h.MaxUs != 0 {
		t.Errorf("negative observe: %+v", h)
	}
}

// TestSnapshotJSONShape pins the field names BENCH_*.json consumers and
// /metrics scrapers rely on.
func TestSnapshotJSONShape(t *testing.T) {
	snap := stats.Snapshot{
		Server: stats.Server{Requests: 3, SessionsLive: 1},
		Match:  stats.Match{WMChanges: 7, Activations: 9},
		Latency: map[string]stats.LatencySummary{
			"request": {Count: 3, P50Us: 12, P99Us: 40},
		},
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	srv, ok := back["server"].(map[string]any)
	if !ok || srv["requests"] != float64(3) || srv["sessions_live"] != float64(1) {
		t.Errorf("server block = %v", back["server"])
	}
	match, ok := back["match"].(map[string]any)
	if !ok || match["wm_changes"] != float64(7) || match["activations"] != float64(9) {
		t.Errorf("match block = %v", back["match"])
	}
	lat, ok := back["latency"].(map[string]any)
	if !ok {
		t.Fatalf("latency block = %v", back["latency"])
	}
	req, ok := lat["request"].(map[string]any)
	if !ok || req["p50_us"] != float64(12) || req["p99_us"] != float64(40) {
		t.Errorf("request latency = %v", lat["request"])
	}
}
