package main

import (
	"context"
	"testing"

	"repro/internal/colquery"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// clone deep-copies a result so a test can corrupt it.
func clone(res *sqldb.Result) *sqldb.Result {
	out := &sqldb.Result{Schema: res.Schema}
	for _, c := range res.Cols {
		out.Cols = append(out.Cols, c.Clone())
	}
	return out
}

// TestOracleCatchesCorruptedRow runs a Type 4 query under DB-UDF (the
// strategy a served workload sends) and checks it against the DL2SQL-OP
// reference: the true answer passes in any row order, and the same answer
// with one row changed is reported wrong.
func TestOracleCatchesCorruptedRow(t *testing.T) {
	in, err := newInputs(workloads["served-udf"], 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	sql := in.typeSQL[3]
	want, err := orc.answer(sql, true)
	if err != nil {
		t.Fatal(err)
	}
	orc.want[sql] = want

	q, err := colquery.Analyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := (&strategies.DBUDF{}).Execute(context.Background(), orc.ref.env, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() < 2 {
		t.Fatalf("want a multi-row answer to corrupt, got %d rows", res.NumRows())
	}
	if err := orc.check(sql, res); err != nil {
		t.Fatalf("true answer rejected: %v", err)
	}

	reversed := clone(res)
	for _, c := range reversed.Cols {
		ints := c.Ints
		for i, j := 0, len(ints)-1; i < j; i, j = i+1, j-1 {
			ints[i], ints[j] = ints[j], ints[i]
		}
	}
	if err := orc.check(sql, reversed); err != nil {
		t.Fatalf("reordered answer rejected: %v", err)
	}

	corrupt := clone(res)
	corrupt.Cols[0].Ints[0]++
	if err := orc.check(sql, corrupt); err == nil {
		t.Fatal("a corrupted row was not caught")
	}

	missing := clone(res)
	missing.Cols[0].Ints = missing.Cols[0].Ints[1:]
	if err := orc.check(sql, missing); err == nil {
		t.Fatal("a missing row was not caught")
	}
}

// TestCanonKeyRoundsFloats pins the comparison rule: floats agree to 9
// significant digits, so summation-order noise passes and a real
// difference does not.
func TestCanonKeyRoundsFloats(t *testing.T) {
	mk := func(v float64) *sqldb.Result {
		c := sqldb.NewColumn(sqldb.TFloat)
		c.Floats = []float64{v, 2}
		return &sqldb.Result{Schema: []sqldb.OutCol{{Name: "rate", Type: sqldb.TFloat}}, Cols: []*sqldb.Column{c}}
	}
	base := canonKey(mk(0.1 + 0.2))
	if canonKey(mk(0.3)) != base {
		t.Error("summation-order noise registered as a difference")
	}
	if canonKey(mk(0.3000001)) == base {
		t.Error("a difference in the 7th significant digit was not caught")
	}
}
