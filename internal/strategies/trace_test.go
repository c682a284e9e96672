package strategies

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/colquery"
	"repro/internal/obs"
)

// executeTraced runs one strategy execution as a trace of a keep-all store
// and returns the retained trace together with the span-name counts of the
// strategy's subtree: every span below the trace root, which must have
// exactly one child — the strategy span.
func executeTraced(t *testing.T, env *Context, s Strategy, q *colquery.Query) (*obs.StoredTrace, map[string]int) {
	t.Helper()
	ts := obs.NewTraceStore(obs.KeepAllTraces())
	tr := ts.StartTrace(context.Background(), "colquery")
	if _, _, err := s.Execute(obs.ContextWithTraceSpan(context.Background(), tr, tr.Root()), env, q); err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	ts.Finish(tr)
	st, ok := ts.Get(tr.ID())
	if !ok || st.Truncated() {
		t.Fatalf("%s: keep-all store lost or truncated the trace", s.Name())
	}
	names := map[string]int{}
	roots := 0
	for _, r := range st.Spans[1:] {
		names[r.Name]++
		if r.ParentID == st.Spans[0].SpanID {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("%s: want 1 root span, got %d", s.Name(), roots)
	}
	if want := "strategy:" + s.Name(); st.Spans[1].Name != want {
		t.Fatalf("root span %q, want %q", st.Spans[1].Name, want)
	}
	return st, names
}

// TestStrategyTraces is the acceptance test for strategy-level tracing:
// every strategy executed under a trace must produce one strategy span
// with nested loading / inference / relational phase spans, and the whole
// tree must export as Chrome-loadable trace_event JSON.
func TestStrategyTraces(t *testing.T) {
	ctx := testContext(t)
	ctx.Metrics = obs.NewRegistry()
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		st, names := executeTraced(t, ctx, s, q)
		var hasLoading, hasInference, hasRelational bool
		for n := range names {
			hasLoading = hasLoading || strings.HasPrefix(n, "loading:")
			hasInference = hasInference || n == "inference" || strings.HasPrefix(n, "inference:") || strings.HasPrefix(n, "model:")
			hasRelational = hasRelational || strings.HasPrefix(n, "relational:")
		}
		if !hasLoading || !hasInference || !hasRelational {
			t.Fatalf("%s: missing phase spans (loading=%v inference=%v relational=%v) in %v",
				s.Name(), hasLoading, hasInference, hasRelational, names)
		}
		// Chrome export must be valid JSON with one complete event per span.
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, st); err != nil {
			t.Fatalf("%s: chrome export: %v", s.Name(), err)
		}
		var events []map[string]any
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("%s: chrome trace is not valid JSON: %v", s.Name(), err)
		}
		if len(events) != st.SpanTotal {
			t.Fatalf("%s: %d chrome events for %d spans", s.Name(), len(events), st.SpanTotal)
		}
	}
	// Metrics: every strategy recorded its breakdown.
	snap := ctx.Metrics.Snapshot()
	for _, s := range All() {
		if got := snap.Counters["strategy."+s.Name()+".queries"]; got < 1 {
			t.Fatalf("%s: queries counter = %d, want >= 1", s.Name(), got)
		}
		if _, ok := snap.Histograms["strategy."+s.Name()+".total_s"]; !ok {
			t.Fatalf("%s: total_s histogram missing", s.Name())
		}
	}
}

// TestPerLayerSpans pins the acceptance criterion that native-NN strategies
// (DB-UDF's in-database UDF and DB-PyTorch's serving component) emit one
// span per NN layer, and DL2SQL emits one span per SQL pipeline step.
func TestPerLayerSpans(t *testing.T) {
	ctx := testContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		strat  Strategy
		marker string // span-name prefix proving layer/step granularity
	}{
		{&DBUDF{}, "conv2d:"},
		{&DBPyTorch{}, "conv2d:"},
		{&DL2SQL{}, "Conv"},
	}
	for _, tc := range cases {
		_, names := executeTraced(t, ctx, tc.strat, q)
		found := false
		for n := range names {
			if strings.HasPrefix(n, tc.marker) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: no span with prefix %q in %v", tc.strat.Name(), tc.marker, names)
		}
	}
}

// TestTracingDisabledUnchanged guards the nil fast path: with no trace
// store armed the strategies run exactly as before and allocate no spans.
func TestTracingDisabledUnchanged(t *testing.T) {
	ctx := testContext(t)
	if ctx.Traces != nil || ctx.Dataset.DB.Traces != nil {
		t.Fatal("fresh context must have tracing disabled")
	}
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		if _, _, err := s.Execute(context.Background(), ctx, q); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

// TestDL2SQLSpanBudgetExhausted: once a trace's span budget is spent,
// StartChild returns nil no-op spans. The DL2SQL translator opens one span
// per pipeline step after the step ran, so a long pipeline under a small
// budget must degrade to untraced steps, not dereference a nil span, and
// must answer exactly as the untraced run does.
func TestDL2SQLSpanBudgetExhausted(t *testing.T) {
	q, err := colquery.GenerateAnalyzed(colquery.Type1, colquery.TemplateParams{Selectivity: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	env := testContext(t)
	want, _, err := ExecuteWithFallback(context.Background(), env, &DL2SQL{}, q)
	if err != nil {
		t.Fatal(err)
	}
	env.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, MaxSpansPerTrace: 8})
	got, _, err := ExecuteWithFallback(context.Background(), env, &DL2SQL{}, q)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(got) != resultKey(want) {
		t.Fatalf("traced result differs from untraced:\n%s\nvs\n%s", resultKey(got), resultKey(want))
	}
}
