package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run.  Start and End are seconds since
// the tracer was created; Parent is the ID of the span that caused this one
// (0 for the root).  Every span of a trace carries the workload's name as its
// shared identifier.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Workload string             `json:"workload"`
	Start    float64            `json:"start"`
	End      float64            `json:"end"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// tracer holds the spans of one workload in memory until the run ends.  The
// simulation loop is single-threaded, so open spans form a stack; serve.burst
// adds its spans after the fact with explicit parents and times.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) rel(at time.Time) float64 { return at.Sub(t.epoch).Seconds() }

// add records a finished span under an explicit parent and returns its ID.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		Start: t.rel(start), End: t.rel(end),
	})
	return id
}

// current is the innermost open span (0 when none is open).
func (t *tracer) current() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, at time.Time) int {
	id := t.add(t.current(), name, at, at)
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int, at time.Time) {
	if t.current() != id {
		panic(fmt.Sprintf("bench: span %d closed while %d is innermost", id, t.current()))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = t.rel(at)
}

func (t *tracer) count(id int, key string, v float64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] += v
}

// duration of a span by ID.
func (t *tracer) duration(id int) float64 { return t.spans[id-1].End - t.spans[id-1].Start }

// childTime sums the durations of the direct children of id; a span's self
// time is its duration minus this.
func (t *tracer) childTime(id int) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Parent == id {
			total += s.End - s.Start
		}
	}
	return total
}

// checkSpanTree verifies that a trace is well-formed: exactly one root, every
// parent exists and was recorded before its child, no span ends before it
// starts, and every child lies inside its parent (to a microsecond, the
// resolution the synthesized children are laid out with).
func checkSpanTree(spans []span) error {
	const slack = 1e-6
	roots := 0
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has ID %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots++
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d recorded after it", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Workload != p.Workload {
			return fmt.Errorf("span %d (%s) and its parent belong to different workloads", s.ID, s.Name)
		}
		if s.Start < p.Start-slack || s.End > p.End+slack {
			return fmt.Errorf("span %d (%s) [%.6f,%.6f] leaves its parent %s [%.6f,%.6f]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if roots != 1 {
		return fmt.Errorf("trace has %d roots, want 1", roots)
	}
	return nil
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
