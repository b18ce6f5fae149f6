package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared mirrors BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesProgram pins BENCHMARK.json against the tables the
// program prints from: same workloads and reasons, same metrics with the same
// unit, direction and bound.
func TestDeclarationMatchesProgram(t *testing.T) {
	d := readDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", d.Paths)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(d.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d declared as %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, got %d", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	match := func(kind string, decl []declaredMetric, defs []metricDef, bounded bool) {
		if len(decl) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(decl), len(defs))
		}
		for i, m := range decl {
			def := defs[i]
			if m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
				t.Errorf("%s metric %d declared as %+v, program has %+v", kind, i, m, def)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or repeated", m.Name)
			}
			seen[m.Name] = true
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("metric %s: direction %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != def.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("metric %s: bound %v, program has %v (must be in (0, 0.25])", m.Name, m.Bound, def.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("per-layer metric %s carries a bound", m.Name)
			}
		}
	}
	match("end_to_end", d.EndToEnd, endToEnd, true)
	match("per_layer", d.PerLayer, perLayer, false)
	hasSetup := false
	for _, m := range d.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
}

// TestSmoke runs every workload at smoke size through both passes and checks
// what the command printed and wrote: every declared workload and metric by
// name, a passing correctness gate, and a well-formed span tree per workload.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	out := t.TempDir()
	var stdout bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout); code != 0 {
		t.Fatalf("exit code %d\n%s", code, stdout.String())
	}

	// Printed names: "== <workload>" headers and "  <metric> <value> <unit>" rows.
	printed := map[string]map[string]string{} // workload -> metric -> unit
	current := ""
	for _, line := range strings.Split(stdout.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 2 && f[0] == "==":
			current = f[1]
			printed[current] = map[string]string{}
		case len(f) >= 3 && strings.HasPrefix(line, "  ") && f[0] != "ok" && f[0] != "FAIL":
			printed[current][f[0]] = f[2]
		}
	}
	if len(printed) != len(d.Workloads) {
		t.Errorf("printed workloads %d, declared %d", len(printed), len(d.Workloads))
	}
	for _, w := range d.Workloads {
		rows, ok := printed[w.Name]
		if !ok {
			t.Errorf("workload %s not printed", w.Name)
			continue
		}
		want := map[string]string{"failed_ops_share": "ratio"}
		for _, m := range append(append([]declaredMetric{}, d.EndToEnd...), d.PerLayer...) {
			want[m.Name] = m.Unit
		}
		for name, unit := range want {
			if rows[name] != unit {
				t.Errorf("%s: metric %s printed with unit %q, declared %q", w.Name, name, rows[name], unit)
			}
		}
		for name := range rows {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: printed metric %s is not declared", w.Name, name)
			}
		}

		var tf traceFile
		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Errorf("trace of %s: %v", w.Name, err)
			continue
		}
		if tf.Workload != w.Name || len(tf.Spans) < 3 {
			t.Errorf("trace of %s names %q and holds %d spans", w.Name, tf.Workload, len(tf.Spans))
		}
		if err := checkSpanTree(tf.Spans); err != nil {
			t.Errorf("trace of %s: %v", w.Name, err)
		}
	}

	res, err := readResults(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Smoke || res.GOMAXPROCS < 1 || res.GoVersion == "" || len(res.Workloads) != len(d.Workloads) {
		t.Errorf("results.json header: %+v", res)
	}
	for _, w := range res.Workloads {
		if !w.correct() || w.Attempted < 1 {
			t.Errorf("%s: %d failed of %d attempted: %+v", w.Name, w.Failed, w.Attempted, w.Checks)
		}
	}

	// An A/A comparison of the run with itself finds no regression.
	var cmp bytes.Buffer
	path := filepath.Join(out, "results.json")
	// (Two smoke-sized repeats may be too noisy to resolve; they can never regress.)
	if code := run([]string{"-compare", path, path}, &cmp); code == 2 || strings.Contains(cmp.String(), "regressed") {
		t.Errorf("-compare of a run with itself: exit code %d\n%s", code, cmp.String())
	}
}

// TestCheckSpanTreeRejects covers the malformed shapes the smoke run never
// produces.
func TestCheckSpanTreeRejects(t *testing.T) {
	ok := []span{{ID: 1, Name: "run", Workload: "w", End: 2}, {ID: 2, Parent: 1, Name: "step", Workload: "w", Start: 0.5, End: 1}}
	if err := checkSpanTree(ok); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	bad := map[string][]span{
		"two roots":      {{ID: 1, Workload: "w", End: 1}, {ID: 2, Workload: "w", End: 1}},
		"no root":        {},
		"child outside":  {{ID: 1, Workload: "w", End: 1}, {ID: 2, Parent: 1, Workload: "w", Start: 0.5, End: 1.5}},
		"ends early":     {{ID: 1, Workload: "w", Start: 1, End: 0}},
		"forward parent": {{ID: 1, Parent: 2, Workload: "w", End: 1}, {ID: 2, Workload: "w", End: 1}},
		"other workload": {{ID: 1, Workload: "w", End: 1}, {ID: 2, Parent: 1, Workload: "v", End: 1}},
	}
	for name, spans := range bad {
		if checkSpanTree(spans) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVerdict pins the three outcomes of a comparison row.
func TestVerdict(t *testing.T) {
	d := metricDef{"particle_steps_per_s", "psteps/s", "higher", 0.10}
	steady := func(v float64) sampled { return sampled{Value: v, Samples: []float64{v * 0.99, v, v * 1.01}} }
	noisy := sampled{Value: 100, Samples: []float64{70, 100, 130}}
	for _, c := range []struct {
		a, b sampled
		want string
	}{
		{steady(100), steady(95), "ok"},
		{steady(100), steady(85), "regressed"},
		{steady(100), steady(120), "ok"},
		{noisy, steady(100), "unresolved"},
	} {
		if got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
	lower := metricDef{"setup_s", "s", "lower", 0.25}
	if got := verdict(lower, steady(1), steady(1.3)); got != "regressed" {
		t.Errorf("lower-is-better metric 30%% up: %s", got)
	}
}
