package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(v, n=4) does (the exclusive method), so
// a spread computed here is the one the benchmark's driver computes.
// v must hold at least two values.
func quartiles(v []float64) (q [3]float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	n := len(d)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func median(v []float64) float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	if n := len(d); n%2 == 1 {
		return d[n/2]
	} else {
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// spread is the interquartile range as a share of the median; 0 when
// there are too few values to have one.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q := quartiles(v)
	return ratio(q[2]-q[0], q[1])
}

// verdict judges side b against side a for one end-to-end metric.
// worse is b's median relative to a's, positive when b is worse.
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	worse = ratio(mb-ma, ma)
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.bound:
		return worse, "regressed"
	case max(spread(a), spread(b)) > d.bound && !allBetter(d, a, b):
		// The runs of one commit disagree by more than the bound: a
		// difference within it cannot be told from noise.
		return worse, "unresolved"
	}
	return worse, "ok"
}

// allBetter reports whether every run of b reads better than every run
// of a — the one case a wide spread still resolves.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if d.better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// readDocument decodes the first JSON value of a file: a saved run's
// stdout carries its document first and the result line after it.
func readDocument(path string) (*document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var doc document
	return &doc, json.NewDecoder(f).Decode(&doc)
}

// load gathers the untraced runs' metric values of a set of documents,
// by workload and metric name.
func load(files []string) (map[string]map[string][]float64, error) {
	out := make(map[string]map[string][]float64)
	for _, f := range files {
		doc, err := readDocument(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range doc.Runs {
			if r.Trace {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// compareFiles prints one row per (workload, end-to-end metric): both
// sides' medians over their files, b's relative difference with a as
// its base, the bound, and the verdict. regressed reports whether any
// row regressed.
func compareFiles(w io.Writer, aFiles, bFiles []string) (regressed bool, err error) {
	a, err := load(aFiles)
	if err != nil {
		return false, err
	}
	b, err := load(bFiles)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta (n=%d)\tb (n=%d)\tb worse, of a\tbound\tspread a/b\tverdict\n", len(aFiles), len(bFiles))
	for i := range workloads {
		name := workloads[i].name
		for _, d := range endToEnd {
			va, vb := a[name][d.name], b[name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: missing on one side", name, d.name)
			}
			worse, v := verdict(d, va, vb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%.1f%%/%.1f%%\t%s\n",
				name, d.name, d.unit, median(va), median(vb), 100*worse, 100*d.bound,
				100*spread(va), 100*spread(vb), v)
		}
	}
	return regressed, tw.Flush()
}
