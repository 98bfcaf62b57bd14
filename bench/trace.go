package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one query share Query; Parent is
// the span that caused this one (0 = none). Times are nanoseconds since
// the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time
	mu sync.Mutex
	// spans[i] has ID i+1.
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, query int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Query: query, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span and returns how long it lasted.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	return time.Duration(now - t.spans[id-1].Start)
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part its children cover.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() map[string]spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	out := map[string]spanSummary{}
	for _, s := range t.spans {
		sum := out[s.Name]
		sum.Count++
		sum.TotalMS += float64(s.End-s.Start) / 1e6
		sum.SelfMS += float64(s.End-s.Start-children[s.ID]) / 1e6
		out[s.Name] = sum
	}
	return out
}

// checkSpans verifies the structure a reader of the span file relies on: every
// span ended, and every child lies inside its parent and shares its query.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End || s.Query != p.Query {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
