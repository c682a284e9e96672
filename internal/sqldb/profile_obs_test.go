package sqldb

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestProfileConcurrentAddMerge hammers add/noteUDF/Merge/String from many
// goroutines; run with -race to verify the locking discipline.
func TestProfileConcurrentAddMerge(t *testing.T) {
	p := NewProfile()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := NewProfile()
			for i := 0; i < 200; i++ {
				p.add(OpScan, 1, time.Microsecond)
				p.noteUDF("nudf_detect")
				o.add(OpJoin, 2, time.Microsecond)
				if i%50 == 0 {
					p.Merge(o)
					_ = p.String()
				}
			}
			p.Merge(o)
		}()
	}
	wg.Wait()
	if got := p.Ops[OpScan].Calls; got != 8*200 {
		t.Fatalf("scan calls = %d, want %d", got, 8*200)
	}
	if got := p.UDFCalls["nudf_detect"]; got != 8*200 {
		t.Fatalf("udf calls = %d, want %d", got, 8*200)
	}
}

// TestProfileReset verifies a session profile can be zeroed between
// queries without replacing the *Profile pointer other code holds.
func TestProfileReset(t *testing.T) {
	db := New()
	db.Profile = NewProfile()
	if _, err := db.Exec("CREATE TABLE t (x Int64)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1),(2),(3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}
	if len(db.Profile.Ops) == 0 {
		t.Fatal("profile recorded nothing")
	}
	db.Profile.Reset()
	if len(db.Profile.Ops) != 0 || len(db.Profile.UDFCalls) != 0 {
		t.Fatalf("reset left state behind: %+v", db.Profile.Ops)
	}
	// The same pointer keeps accumulating after a reset.
	if _, err := db.Exec("SELECT * FROM t WHERE x > 1"); err != nil {
		t.Fatal(err)
	}
	if db.Profile.Ops[OpScan] == nil {
		t.Fatal("profile dead after reset")
	}
	var nilProf *Profile
	nilProf.Reset() // must not panic
}

// TestQueryOperatorSpans checks that arming a keep-all trace store on the
// DB produces one query root span with nested per-operator children, and
// that the export is Chrome-loadable JSON.
func TestQueryOperatorSpans(t *testing.T) {
	db := New()
	for _, sql := range []string{
		"CREATE TABLE a (id Int64, v Float64)",
		"CREATE TABLE b (id Int64, w Float64)",
		"INSERT INTO a VALUES (1, 1.5), (2, 2.5), (3, 3.5)",
		"INSERT INTO b VALUES (1, 9.0), (2, 8.0)",
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	db.Traces = obs.NewTraceStore(obs.KeepAllTraces())
	if _, err := db.Exec("SELECT a.v, b.w FROM a, b WHERE a.id = b.id AND a.v > 1"); err != nil {
		t.Fatal(err)
	}
	traces := db.Traces.Snapshot()
	if len(traces) != 1 || traces[0].Spans[0].Name != "query" {
		t.Fatalf("traces = %+v, want one rooted at a query span", traces)
	}
	spans := traces[0].Spans
	find := func(name string) *obs.SpanRow {
		for i := range spans {
			if spans[i].Name == name {
				return &spans[i]
			}
		}
		return nil
	}
	for _, name := range []string{"Scan a", "Scan b", "HashJoin", "Project"} {
		if find(name) == nil {
			t.Fatalf("missing operator span %q in: %+v", name, spans)
		}
	}
	join := find("HashJoin")
	kids := 0
	for _, r := range spans {
		if r.ParentID == join.SpanID {
			kids++
		}
	}
	if kids != 2 {
		t.Fatalf("join span has %d children, want its two scans: %+v", kids, spans)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, traces...); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace export not valid JSON: %v", err)
	}
	if len(events) < 5 {
		t.Fatalf("trace export has %d events, want >=5", len(events))
	}
	// Row counts ride along as span attributes.
	if !strings.Contains(join.Attrs, "rows=") {
		t.Fatalf("join span missing rows attribute: %q", join.Attrs)
	}
	// Disarming the store restores the silent fast path.
	db.Traces = nil
	if _, err := db.Exec("SELECT * FROM a"); err != nil {
		t.Fatal(err)
	}
}

// TestExplainAnalyzeTreeMatchesProfile sanity-checks that per-node actuals
// agree with the result cardinality.
func TestExplainAnalyzeTreeMatchesProfile(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE n (x Int64)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec("INSERT INTO n VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("EXPLAIN ANALYZE SELECT x FROM n WHERE x = 1")
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for i := 0; i < res.NumRows(); i++ {
		out += res.Cols[0].Get(i).String() + "\n"
	}
	if !strings.Contains(out, "actual rows=20") {
		t.Fatalf("actual row count not reported:\n%s", out)
	}
}
