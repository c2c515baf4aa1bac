package stats

import (
	"math"
	"time"
)

// Server aggregates inference-server counters. Plain int64 fields, like
// Match: the owner synchronizes access (the server updates them under
// its metrics mutex).
type Server struct {
	SessionsCreated int64 `json:"sessions_created"`
	SessionsClosed  int64 `json:"sessions_closed"`
	SessionsLive    int64 `json:"sessions_live"`

	Requests      int64 `json:"requests"`       // API requests handled
	RequestErrors int64 `json:"request_errors"` // requests answered with an error status
	Panics        int64 `json:"panics"`         // session panics recovered
	LimitStops    int64 `json:"limit_stops"`    // runs stopped by a cycle/time budget

	Batches    int64 `json:"batches"`     // assert/retract batches executed
	BatchItems int64 `json:"batch_items"` // WM changes requested across batches
	Asserts    int64 `json:"asserts"`     // elements asserted via the API
	Retracts   int64 `json:"retracts"`    // elements retracted via the API

	Cycles  int64 `json:"cycles"`  // recognize-act cycles run on behalf of requests
	Firings int64 `json:"firings"` // production firings across those cycles

	// Content-addressed program cache: registered entries, session
	// creates that found their compiled program already resident (no
	// parse, no Rete compile), and the compiles actually paid.
	ProgramsRegistered int64 `json:"programs_registered"`
	ProgramHits        int64 `json:"program_hits"`
	ProgramCompiles    int64 `json:"program_compiles"`
	// ProgramImagesBuilt counts the init images built: a program's
	// top-level makes matched once, then copied by every create.
	ProgramImagesBuilt int64 `json:"program_images_built"`
	// ThawsReused counts the session starts (creates and forks) whose
	// token table was a deleted session's, taken over from its image
	// instead of allocated.
	ThawsReused int64 `json:"thaws_reused"`
}

// histBuckets is the number of power-of-two latency buckets. Bucket i
// covers durations in [2^i, 2^(i+1)) microseconds; bucket 0 also takes
// sub-microsecond observations, the last bucket takes everything above
// ~34 seconds. 26 buckets keep the zero value small enough to embed.
const histBuckets = 26

// Histogram is a fixed-bucket log-2 latency histogram. The zero value
// is ready to use. Like the counter structs, it is not internally
// synchronized.
type Histogram struct {
	Count   int64              `json:"count"`
	SumUs   int64              `json:"sum_us"`
	MaxUs   int64              `json:"max_us"`
	Buckets [histBuckets]int64 `json:"buckets"`
}

// bucketOf maps a duration to its bucket index.
func bucketOf(us int64) int {
	b := 0
	for us > 1 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.Count++
	h.SumUs += us
	if us > h.MaxUs {
		h.MaxUs = us
	}
	h.Buckets[bucketOf(us)]++
}

// ObserveCount records a unitless size observation (batch items, token
// counts) in the same log-2 buckets. Count-valued histograms must use
// this instead of Observe so sizes are not mistaken for durations; they
// render through CountSummary, which labels fields in items rather than
// microseconds.
func (h *Histogram) ObserveCount(n int64) {
	if n < 0 {
		n = 0
	}
	h.Count++
	h.SumUs += n
	if n > h.MaxUs {
		h.MaxUs = n
	}
	h.Buckets[bucketOf(n)]++
}

// Quantile returns an upper bound (the bucket's upper edge, clamped to
// the observed maximum) for the q-quantile, q in [0, 1]. Zero
// observations yield 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.quantileRaw(q)) * time.Microsecond
}

// quantileRaw is Quantile in the histogram's native unit (µs for
// latency histograms, items for count histograms).
func (h *Histogram) quantileRaw(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if seen >= rank {
			upper := int64(1) << uint(i+1) // exclusive upper edge
			if upper > h.MaxUs {
				upper = h.MaxUs
			}
			return upper
		}
	}
	return h.MaxUs
}

// MeanUs returns the mean observation in microseconds.
func (h *Histogram) MeanUs() float64 { return Mean(h.SumUs, h.Count) }

// LatencySummary is the rendered form of a histogram for snapshots.
type LatencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  int64   `json:"p50_us"`
	P90Us  int64   `json:"p90_us"`
	P99Us  int64   `json:"p99_us"`
	MaxUs  int64   `json:"max_us"`
}

// Summary renders the histogram's headline quantiles.
func (h *Histogram) Summary() LatencySummary {
	return LatencySummary{
		Count:  h.Count,
		MeanUs: h.MeanUs(),
		P50Us:  h.Quantile(0.50).Microseconds(),
		P90Us:  h.Quantile(0.90).Microseconds(),
		P99Us:  h.Quantile(0.99).Microseconds(),
		MaxUs:  h.MaxUs,
	}
}

// CountSummary is the rendered form of a count-valued histogram
// (ObserveCount): same quantile machinery as LatencySummary, but the
// unit is items, not microseconds.
type CountSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_items"`
	P50   int64   `json:"p50_items"`
	P90   int64   `json:"p90_items"`
	P99   int64   `json:"p99_items"`
	Max   int64   `json:"max_items"`
}

// CountSummary renders a count-valued histogram's headline quantiles.
func (h *Histogram) CountSummary() CountSummary {
	return CountSummary{
		Count: h.Count,
		Mean:  Mean(h.SumUs, h.Count),
		P50:   h.quantileRaw(0.50),
		P90:   h.quantileRaw(0.90),
		P99:   h.quantileRaw(0.99),
		Max:   h.MaxUs,
	}
}

// Snapshot is the point-in-time view GET /metrics serves and the bench
// harness writes into BENCH_*.json: server counters, the aggregated
// match, conflict-set, epoch and token-memory counters of every live and
// closed session, latency summaries keyed by operation ("request",
// "run", ...) and size summaries keyed by quantity ("batch_items").
type Snapshot struct {
	Server     Server                    `json:"server"`
	Match      Match                     `json:"match"`
	Conflict   Conflict                  `json:"conflict"`
	Epoch      Epoch                     `json:"epoch"`
	Memory     Memory                    `json:"memory"`
	Durability Durability                `json:"durability"`
	Latency    map[string]LatencySummary `json:"latency"`
	Counts     map[string]CountSummary   `json:"counts"`
}
