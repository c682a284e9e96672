package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// keepAll starts a trace on a fresh keep-all store; retain finishes it and
// returns its flattened rows.
func keepAll(t *testing.T, root string) (*TraceStore, *Trace) {
	t.Helper()
	ts := NewTraceStore(KeepAllTraces())
	return ts, ts.StartTrace(context.Background(), root)
}

func retain(t *testing.T, ts *TraceStore, tr *Trace) *StoredTrace {
	t.Helper()
	if !ts.Finish(tr) {
		t.Fatal("keep-all store dropped a trace")
	}
	st, ok := ts.Get(tr.ID())
	if !ok {
		t.Fatalf("trace %s not retained", tr.ID())
	}
	return st
}

// TestNilTracerIsNoOp: with no trace store armed there is no trace, no
// root span, and no active span, and every downstream span call is safe.
func TestNilTracerIsNoOp(t *testing.T) {
	var ts *TraceStore
	tr := ts.StartTrace(context.Background(), "root")
	if tr != nil {
		t.Fatal("nil store returned a live trace")
	}
	sp := tr.Root()
	if sp != nil {
		t.Fatal("nil trace returned a live span")
	}
	// Every downstream call must be safe on the nil span.
	child := sp.StartChild("child")
	child.SetAttr("k", "v")
	child.Finish()
	sp.Finish()
	ctx := context.Background()
	if got, s := StartSpan(ctx, "orphan"); got != ctx || s != nil {
		t.Fatal("StartSpan without an active span must be a no-op")
	}
	if ts.Finish(tr) {
		t.Fatal("nil store retained a trace")
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, ts.Snapshot()...); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty chrome export = %q, want []", buf.String())
	}
}

func TestSpanNesting(t *testing.T) {
	ts, tr := keepAll(t, "query")
	root := tr.Root()
	root.SetAttr("sql", "SELECT 1")
	scan := root.StartChild("Scan")
	scan.SetAttr("rows", 10)
	scan.Finish()
	join := root.StartChild("Join")
	inner := join.StartChild("probe")
	inner.Finish()
	join.Finish()
	st := retain(t, ts, tr)

	if got := len(st.Spans); got != 4 || st.SpanTotal != 4 {
		t.Fatalf("span count = %d (total %d), want 4", got, st.SpanTotal)
	}
	if st.Spans[3].Name != "probe" || st.Spans[3].ParentID != st.Spans[2].SpanID {
		t.Fatalf("nested span not under its parent: %+v", st.Spans)
	}
	if st.Spans[1].Attrs != "rows=10" {
		t.Fatalf("scan attrs = %q, want rows=10", st.Spans[1].Attrs)
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name != "Scan" || kids[1].Name != "Join" {
		t.Fatalf("unexpected children: %+v", kids)
	}
	if root.Duration() <= 0 {
		t.Fatal("finished span has non-positive duration")
	}
}

// TestTreeExporter: the flattened rows are the tree — depth-first, root
// first, each child linked to its parent in creation order.
func TestTreeExporter(t *testing.T) {
	ts, tr := keepAll(t, "inference")
	root := tr.Root()
	l1 := root.StartChild("conv2d:conv1")
	l1.Finish()
	l2 := root.StartChild("relu:act1")
	l2.Finish()
	rows := retain(t, ts, tr).Spans

	if len(rows) != 3 {
		t.Fatalf("tree has %d rows, want 3: %+v", len(rows), rows)
	}
	if rows[0].Name != "inference" || rows[0].ParentID != 0 {
		t.Fatalf("root row = %+v", rows[0])
	}
	if rows[1].Name != "conv2d:conv1" || rows[2].Name != "relu:act1" ||
		rows[1].ParentID != rows[0].SpanID || rows[2].ParentID != rows[0].SpanID {
		t.Fatalf("children not under root: %+v", rows)
	}
}

func TestChromeTraceExporter(t *testing.T) {
	ts, tr := keepAll(t, "strategy")
	root := tr.Root()
	root.SetAttr("name", "DL2SQL")
	child := root.StartChild("loading")
	time.Sleep(time.Millisecond)
	child.Finish()
	st := retain(t, ts, tr)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, st); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("exported %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("event phase = %v, want X", ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event missing numeric ts: %v", ev)
		}
		if _, ok := ev["dur"].(float64); !ok {
			t.Fatalf("event missing numeric dur: %v", ev)
		}
	}
	if events[0]["name"] != "strategy" {
		t.Fatalf("first event = %v, want root span", events[0]["name"])
	}
	args, ok := events[0]["args"].(map[string]any)
	if !ok || args["attrs"] != "name=DL2SQL" {
		t.Fatalf("root span args not exported: %v", events[0]["args"])
	}
	// Child duration must sit inside the parent's window.
	if events[1]["dur"].(float64) > events[0]["dur"].(float64) {
		t.Fatal("child event outlasts its parent")
	}
}

// TestChromeTraceMultiTrace: one export over several retained traces has
// one event per retained span, keeps each event's trace_id, and puts every
// timestamp on one timeline starting at the earliest trace.
func TestChromeTraceMultiTrace(t *testing.T) {
	ts := NewTraceStore(KeepAllTraces())
	first := ts.StartTrace(context.Background(), "first")
	first.Root().StartChild("a").Finish()
	time.Sleep(2 * time.Millisecond)
	second := ts.StartTrace(context.Background(), "second")
	second.Root().StartChild("b").Finish()
	second.Root().StartChild("c").Finish()
	// Finish out of start order: the export must still anchor on the
	// earliest start, not on the first trace passed in.
	ts.Finish(second)
	ts.Finish(first)
	snap := ts.Snapshot()
	if len(snap) != 2 || snap[0].ID != second.ID() {
		t.Fatalf("snapshot = %d traces, want second then first", len(snap))
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, snap...); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		TS   float64 `json:"ts"`
		Args struct {
			TraceID string `json:"trace_id"`
		} `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if want := len(snap[0].Spans) + len(snap[1].Spans); len(events) != 5 || len(events) != want {
		t.Fatalf("exported %d events, want 5 (= %d retained spans)", len(events), want)
	}
	byTrace := map[string]int{}
	ts0 := map[string]float64{}
	for _, ev := range events {
		byTrace[ev.Args.TraceID]++
		ts0[ev.Name] = ev.TS
		if ev.TS < 0 {
			t.Fatalf("event %s at %vµs precedes the earliest start", ev.Name, ev.TS)
		}
	}
	if len(byTrace) != 2 || byTrace[first.ID()] != 2 || byTrace[second.ID()] != 3 {
		t.Fatalf("events per trace_id = %v, want 2 and 3 under distinct IDs", byTrace)
	}
	if ts0["first"] != 0 {
		t.Fatalf("earliest root at %vµs, want 0", ts0["first"])
	}
	wantSecond := float64(second.Start().Sub(first.Start())) / float64(time.Microsecond)
	if ts0["second"] != wantSecond || wantSecond < 2000 {
		t.Fatalf("second root at %vµs, want %vµs (relative to the earliest start)", ts0["second"], wantSecond)
	}
}

func TestConcurrentSpansAndMetrics(t *testing.T) {
	ts, tr := keepAll(t, "parallel")
	reg := NewRegistry()
	root := tr.Root()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := root.StartChild("work")
				sp.SetAttr("j", j)
				sp.Finish()
				reg.Counter("ops").Add(1)
				reg.Gauge("last").Set(float64(j))
				reg.Histogram("latency").Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	root.Finish()
	if got := len(root.Children()); got != 16*50 {
		t.Fatalf("children = %d, want %d", got, 16*50)
	}
	ts.Finish(tr)
	if got := reg.Counter("ops").Value(); got != 16*50 {
		t.Fatalf("counter = %d, want %d", got, 16*50)
	}
	if got := reg.Histogram("latency").Summary().Count; got != 16*50 {
		t.Fatalf("histogram count = %d, want %d", got, 16*50)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5)
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(2)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary basics wrong: %+v", s)
	}
	// Count/Min/Max/Mean are exact; quantiles are bucket-interpolated with
	// at most one bucket (~2.2%) of relative error around the exact order
	// statistics (50.5 / 95.05 / 99.01).
	if s.P50 < 48.5 || s.P50 > 52 {
		t.Fatalf("p50 = %v, want ~50.5 (±2.5%%)", s.P50)
	}
	if s.P95 < 92.5 || s.P95 > 97.5 {
		t.Fatalf("p95 = %v, want ~95 (±2.5%%)", s.P95)
	}
	if s.P99 < 96.5 || s.P99 > 100 {
		t.Fatalf("p99 = %v, want ~99 (±2.5%%)", s.P99)
	}
	if s.Mean < 50.4 || s.Mean > 50.6 {
		t.Fatalf("mean = %v, want 50.5", s.Mean)
	}
	if s.Sum != 5050 {
		t.Fatalf("sum = %v, want 5050", s.Sum)
	}
}

func TestRegistrySnapshotJSONAndString(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries").Add(3)
	r.Gauge("tables").Set(7)
	r.Histogram("strategy.DL2SQL.inference").Observe(0.25)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSON round-trip: %v", err)
	}
	if snap.Counters["queries"] != 3 || snap.Gauges["tables"] != 7 {
		t.Fatalf("round-tripped snapshot wrong: %+v", snap)
	}
	text := r.Snapshot().String()
	for _, want := range []string{"queries", "tables", "strategy.DL2SQL.inference", "p95"} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot text missing %q:\n%s", want, text)
		}
	}
}
