package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is 0 for an operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span's name starts with ("sqldb.plan" → "sqldb").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps the benchmark's own spans in memory. A nil tracer (the
// untraced run) records nothing.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	ops   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// liveSpan is a started span; finish records it.
type liveSpan struct {
	t     *tracer
	s     span
	start time.Time
}

func (t *tracer) start(op int64, parent *liveSpan, name string) *liveSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	s := span{ID: t.ids.Add(1), Op: op, Name: name, Start: int64(now.Sub(t.epoch))}
	if parent != nil {
		s.Parent = parent.s.ID
	}
	return &liveSpan{t: t, s: s, start: now}
}

func (l *liveSpan) finish() {
	if l == nil {
		return
	}
	l.s.End = l.s.Start + int64(time.Since(l.start))
	l.t.add(l.s)
}

// addReported records a child span of parent that ends at end and lasts d,
// as reported by the program (the server's wall_ms) rather than timed here.
func (t *tracer) addReported(parent *liveSpan, name string, end time.Time, d time.Duration) {
	if t == nil || parent == nil {
		return
	}
	e := int64(end.Sub(t.epoch))
	t.add(span{ID: t.ids.Add(1), Parent: parent.s.ID, Op: parent.s.Op, Name: name, Start: e - int64(d), End: e})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanTree answers self-time and coverage questions over a set of spans.
type spanTree struct {
	spans    []span
	children map[int64][]span
}

func newSpanTree(spans []span) *spanTree {
	st := &spanTree{spans: spans, children: map[int64][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			st.children[s.Parent] = append(st.children[s.Parent], s)
		}
	}
	return st
}

// covered is the length of the part of s that its children cover.
func (st *spanTree) covered(s span) int64 {
	kids := append([]span(nil), st.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64 = 0, s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, s.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// self is a span's duration minus the part its children cover.
func (st *spanTree) self(s span) int64 { return s.End - s.Start - st.covered(s) }
