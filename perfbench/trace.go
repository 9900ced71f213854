package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory and are written out when the run ends. A nil
// *tracer records nothing, so untraced phases pay one nil check per
// span site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

// span is one timed call. Group ties together the spans of one frame or
// one query; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span ID, so a parent can hand its ID to children before
// it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span under a reserved ID.
func (t *tracer) record(id, parent, group int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// add reserves an ID and records the span in one step, for leaves.
func (t *tracer) add(parent, group int64, name string, start, end time.Time) {
	t.record(t.id(), parent, group, name, start, end)
}

// layerTime is one span name's totals: count, summed duration, and self
// time (duration minus the part of it that child spans cover).
type layerTime struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// selfTimes aggregates spans by name. Children of one parent may
// overlap (pipelined frames), so coverage is the union of their
// intervals clipped to the parent.
func (t *tracer) selfTimes() []layerTime {
	kids := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			by[s.Name] = lt
		}
		d := s.End - s.Start
		lt.count++
		lt.total += time.Duration(d)
		lt.self += time.Duration(d - covered(s, kids[s.ID]))
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return sum
}

func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "traced spans %d\n", len(t.spans))
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(w, "traced span %-22s count=%-7d total_s=%.6f self_s=%.6f\n", lt.name, lt.count, lt.total.Seconds(), lt.self.Seconds())
	}
}

// write dumps every span as JSON for offline inspection.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("traced spans written to %s\n", path)
	return nil
}
