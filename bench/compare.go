package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges candidate b against baseline a for one end-to-end metric:
// "unresolved" when either run's own interquartile spread exceeds the bound
// (the runs cannot tell a change of that size from noise), "regressed" when
// b's median is worse than a's by more than the bound, "ok" otherwise.
func verdict(d metricDef, a, b sampled) string {
	if math.Max(spread(a.Samples), spread(b.Samples)) > d.bound {
		return "unresolved"
	}
	worse := b.Value > a.Value*(1+d.bound)
	if d.better == "higher" {
		worse = b.Value < a.Value*(1-d.bound)
	}
	if worse {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// results.json files — baseline first — and reports whether any row
// regressed.  Unresolved rows and correctness failures also fail the
// comparison: neither supports "no regression".
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "baseline  %s (seed %d, %s, GOMAXPROCS %d)\ncandidate %s (seed %d, %s, GOMAXPROCS %d)\n\n",
		pathA, a.Seed, a.GoVersion, a.GOMAXPROCS, pathB, b.Seed, b.GoVersion, b.GOMAXPROCS)
	fmt.Fprintf(w, "%-13s %-21s %-9s %34s %34s %16s %6s  %s\n",
		"workload", "metric", "unit", "baseline median [q1, q3]", "candidate median [q1, q3]", "cand/base", "bound", "verdict")
	byName := map[string]*workloadResult{}
	for _, wl := range b.Workloads {
		byName[wl.Name] = wl
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(w, "%-13s missing from %s\n", wa.Name, pathB)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			sa, oka := wa.EndToEnd[d.name]
			sb, okb := wb.EndToEnd[d.name]
			if !oka || !okb {
				continue
			}
			v := verdict(d, sa, sb)
			bad = bad || v != "ok"
			fmt.Fprintf(w, "%-13s %-21s %-9s %34s %34s %16s %5.0f%%  %s\n", wa.Name, d.name, d.unit,
				fmt.Sprintf("%.5g [%.5g, %.5g]", sa.Value, sa.Q1, sa.Q3),
				fmt.Sprintf("%.5g [%.5g, %.5g]", sb.Value, sb.Q1, sb.Q3),
				fmt.Sprintf("%.4f of %.5g", sb.Value/sa.Value, sa.Value), 100*d.bound, v)
		}
		if !wa.correct() || !wb.correct() {
			fmt.Fprintf(w, "%-13s correctness gate failed (baseline %d, candidate %d failures)\n", wa.Name, wa.Failed, wb.Failed)
			bad = true
		}
		// Informational: a change may legitimately move the trajectory
		// (a new precision tier), but an A/A pair must agree exactly.
		if a.Seed == b.Seed && len(wa.StateCRC) > 0 && len(wb.StateCRC) > 0 && wa.StateCRC[0] != wb.StateCRC[0] {
			fmt.Fprintf(w, "%-13s final state CRC differs at the same seed: %s vs %s\n", wa.Name, wa.StateCRC[0], wb.StateCRC[0])
		}
	}
	return bad, nil
}
