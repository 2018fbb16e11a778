package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program around the public function the benchmark calls.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an op's root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the tracer was created
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (-1 when untraced).
func (t *tracer) start(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTotals aggregates closed spans by name.
type layerTotals struct {
	Count     int     `json:"count"`
	Inclusive float64 `json:"inclusive_s"`
	Self      float64 `json:"self_s"`
}

// totals returns, per span name, the call count, the summed duration
// and the summed self time: a span's duration minus the part of it
// that its children cover.
func (t *tracer) totals() map[string]*layerTotals {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerTotals{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Inclusive += d
		lt.Self += d - covered(children[s.ID])
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(ss []span) float64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	total, curStart, curEnd := 0.0, 0.0, -1.0
	for _, s := range ss {
		if s.End < 0 {
			continue
		}
		if s.Start > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s.Start, s.End
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return total
}

// write stores the spans and their per-layer totals as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Layers map[string]*layerTotals `json:"layers"`
		Spans  []span                  `json:"spans"`
	}{t.totals(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
