// Command bench is the repository's one benchmark: five named workloads,
// end-to-end metrics from untraced repeats, per-layer metrics from one traced
// repeat, and a correctness gate, in one command.  See README.md.
//
//	go run . [-seed n] [-workload name] [-smoke] [-out dir]    every metric, results.json, traces
//	go run . -compare a.json b.json                            A/B (or A/A) verdict per metric
//	go run . -workload name -seed n -seconds s -trace 0|1      one pass; result object on the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the measuring window of one
// workload's untraced pass.
const defaultSeconds = 20

// results is the on-disk record of one invocation (results.json).
type results struct {
	Seed       int64             `json:"seed"`
	Smoke      bool              `json:"smoke"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Seconds    float64           `json:"seconds"`
	Started    time.Time         `json:"started"`
	Workloads  []*workloadResult `json:"workloads"`
}

// driverLine is the object the last line of standard output carries when a
// single pass is requested with -trace.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main with its inputs and outputs passed in; it returns the exit
// code: 0 when every selected workload ran and passed its checks, 1 when a
// check failed (or -compare found a regression), 2 on a usage or I/O error.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	only := fs.String("workload", "", "run only this workload (default: all five)")
	smoke := fs.Bool("smoke", false, "tiny problem sizes, seconds in total: exercises the harness, measures nothing")
	out := fs.String("out", "out", "directory for results.json, trace-<workload>.json and scratch files")
	seconds := fs.Float64("seconds", defaultSeconds, "measuring window of each workload's untraced pass")
	trace := fs.Int("trace", -1, "0: untraced pass only, 1: traced pass only; either prints the result object as the last line (default: both passes)")
	compare := fs.Bool("compare", false, "compare two results.json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			return usage(fmt.Errorf("-compare takes two results.json paths"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return usage(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return usage(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}

	selected := workloads
	if *only != "" {
		w := workloadByName(*only)
		if w == nil {
			return usage(fmt.Errorf("unknown workload %q", *only))
		}
		selected = []workload{*w}
	}
	if *trace >= 0 && len(selected) != 1 {
		return usage(fmt.Errorf("-trace selects one pass of one workload; name it with -workload"))
	}

	// Sizing: the load comes from this one process, so the solver gets
	// min(nproc, 4) workers and the scheduler exactly as many processors.
	workers := runtime.NumCPU()
	if workers > 4 {
		workers = 4
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	b := &bench{seed: *seed, workers: workers, seconds: *seconds, smoke: *smoke, out: *out}
	if b.smoke {
		b.seconds = 0
	}
	all := &results{
		Seed: b.seed, Smoke: b.smoke, NProc: runtime.NumCPU(), GOMAXPROCS: workers,
		GoVersion: runtime.Version(), Seconds: b.seconds, Started: time.Now().UTC(),
	}

	// Workloads run one after the other, each one's repeats back to back, so
	// no workload's measurements interleave with another's.
	ok := true
	for i := range selected {
		w := &selected[i]
		pass := b.runSimWorkload
		if w.serve {
			pass = b.runServeWorkload
		}
		res, err := pass(w, *trace != 1, *trace != 0)
		if err != nil {
			// An operation failed outright; record it and move on.
			res.check("run", false, "%v", err)
		}
		all.Workloads = append(all.Workloads, res)
		printWorkload(stdout, res)
		ok = ok && res.correct()
		if res.trace != nil {
			path := filepath.Join(b.out, "trace-"+w.name+".json")
			if err := writeJSON(path, traceFile{Workload: w.name, Seed: b.seed, Spans: res.trace.spans}); err != nil {
				return usage(err)
			}
		}
	}
	if err := writeJSON(filepath.Join(b.out, "results.json"), all); err != nil {
		return usage(err)
	}
	os.RemoveAll(filepath.Join(b.out, "work"))

	if *trace >= 0 {
		res := all.Workloads[0]
		line := driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed}
		if *trace == 0 {
			values := map[string]float64{}
			for name, s := range res.EndToEnd {
				values[name] = s.Value
			}
			line.Metrics = metricSet(endToEnd, values)
		} else {
			line.Metrics = metricSet(perLayer, res.PerLayer)
		}
		data, err := json.Marshal(line)
		if err != nil {
			return usage(err)
		}
		fmt.Fprintln(stdout, string(data))
	}
	if !ok {
		return 1
	}
	return 0
}

func usage(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// printWorkload prints every metric of one workload by name and unit, then
// the correctness gate.
func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s  (N=%d, seed %d, timed section %.1f s)\n", r.Name, r.Particles, r.Config.Seed, r.TimedS)
	for _, d := range endToEnd {
		s, ok := r.EndToEnd[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-9s median of %d, quartiles [%.6g, %.6g], spread %.1f%%\n",
			d.name, s.Value, d.unit, len(s.Samples), s.Q1, s.Q3, 100*spread(s.Samples))
	}
	failedShare := 0.0
	if r.Attempted > 0 {
		failedShare = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-9s %d failed of %d attempted\n", "failed_ops_share", failedShare, "ratio", r.Failed, r.Attempted)
	if r.PerLayer != nil {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, r.PerLayer[d.name], d.unit)
		}
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %-4s %-16s %s\n", status, c.Name, c.Detail)
	}
}
