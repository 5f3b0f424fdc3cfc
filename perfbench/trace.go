package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID identifies a span within one tracer; 0 means "no parent".
type spanID int64

// span is one timed call into a layer, recorded from the benchmark's own
// code around that call. Spans of one operation share Op.
type span struct {
	ID     spanID        `json:"id"`
	Parent spanID        `json:"parent,omitempty"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	t *tracer
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	next  spanID
	spans []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span now; finish it with end.
func (t *tracer) start(name string, op int64, parent spanID) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Op: op, Parent: parent, Start: time.Since(t.origin), t: t}
	t.add(s)
	return s
}

// record adds a completed span with known wall-clock bounds (for example
// a server-side interval reported in a response, aligned to its end).
func (t *tracer) record(name string, op int64, parent spanID, start, end time.Time) spanID {
	if t == nil {
		return 0
	}
	s := &span{Name: name, Op: op, Parent: parent, Start: start.Sub(t.origin), End: end.Sub(t.origin), t: t}
	t.add(s)
	return s.ID
}

func (t *tracer) add(s *span) {
	t.mu.Lock()
	t.next++
	s.ID = t.next
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// end closes the span now.
func (s *span) end() {
	if s == nil {
		return
	}
	d := time.Since(s.t.origin)
	s.t.mu.Lock()
	s.End = d
	s.t.mu.Unlock()
}

// id returns the span's ID (0 for a nil span), for use as a parent.
func (s *span) id() spanID {
	if s == nil {
		return 0
	}
	return s.ID
}

// snapshot copies the spans under the lock.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, len(t.spans))
	for i, s := range t.spans {
		out[i] = *s
		out[i].t = nil
	}
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTime is one span name's aggregate: how many spans, their total
// duration, and their self time — duration minus the part of the span's
// interval its children cover.
type selfTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates self time by span name, sorted by self time.
func selfTimes(spans []span) []selfTime {
	children := map[spanID][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*selfTime{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{Name: s.Name}
			agg[s.Name] = a
		}
		dur := s.End - s.Start
		a.Count++
		a.Total += dur
		a.Self += dur - covered(s, children[s.ID])
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimeTable renders the per-layer self-time table.
func (t *tracer) selfTimeTable() []string {
	rows := selfTimes(t.snapshot())
	out := []string{fmt.Sprintf("%-28s %8s %12s %12s %12s", "span", "count", "total_ms", "self_ms", "self_us/op")}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%-28s %8d %12.3f %12.3f %12.1f",
			r.Name, r.Count, ms(r.Total), ms(r.Self), us(r.Self)/float64(r.Count)))
	}
	return out
}

// writeFile writes every span as JSON, once, at the end of the run.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
