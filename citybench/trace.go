package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the
// index of the enclosing span in the same tracer, or -1 for a root.
type span struct {
	Name       string
	Parent     int32
	Start, End int64 // nanoseconds since the tracer's origin
}

// tracer keeps the spans of a traced run in memory. The benchmark drives
// the system from one goroutine, so the open spans form a stack and a new
// span's parent is simply the innermost open one. A nil *tracer records
// nothing, which is how untraced episodes pay no tracing cost.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the durations
// of its direct children. Children of one parent never overlap (one
// goroutine), so the difference is the time the span spent outside them.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// durationsByName groups span durations (milliseconds) by span name.
func durationsByName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// selfByName groups span self times (milliseconds) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e6)
	}
	return out
}

// writeSpans writes the spans of each traced episode as tab-separated
// lines (episode, index, parent, name, start ns, end ns) to path, creating
// its directory.
func writeSpans(path string, episodes [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "episode\tid\tparent\tname\tstart_ns\tend_ns")
	for ep, spans := range episodes {
		for i, s := range spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", ep, i, s.Parent, s.Name, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
