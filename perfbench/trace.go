package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request or one replayed cell share a trace id.
type span struct {
	Trace  int64     `json:"trace"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"` // 0 for a root
	Name   string    `json:"name"`   // "<layer>.<call>"
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// spanCtx is an open span.
type spanCtx struct {
	t *tracer
	s span
}

// begin opens a span under parent (nil: a root span of a new trace).
func (t *tracer) begin(parent *spanCtx, name string) *spanCtx {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	s := span{ID: id, Trace: id, Name: name, Start: time.Now()}
	if parent != nil {
		s.Trace, s.Parent = parent.s.Trace, parent.s.ID
	}
	return &spanCtx{t: t, s: s}
}

// end closes the span and returns its duration.
func (c *spanCtx) end() {
	if c == nil {
		return
	}
	c.s.End = time.Now()
	c.t.mu.Lock()
	c.t.spans = append(c.t.spans, c.s)
	c.t.mu.Unlock()
}

// selfTimes returns each layer's self time: a span's duration minus the
// part of it its children cover, summed per layer (the name's prefix up
// to the first dot).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		covered := coveredTime(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.End.Sub(s.Start) - covered
	}
	return out
}

// coveredTime is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredTime(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	var curS, curE time.Time
	flush := func() {
		if curE.After(curS) {
			total += curE.Sub(curS)
		}
	}
	for i, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if i > 0 && !s.After(curE) {
			if e.After(curE) {
				curE = e
			}
			continue
		}
		if i > 0 {
			flush()
		}
		curS, curE = s, e
	}
	if len(kids) > 0 {
		flush()
	}
	return total
}

// write dumps the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
