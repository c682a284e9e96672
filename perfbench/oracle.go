package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/colquery"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// canonKey renders a result order-independently: rows sorted, floats
// rounded to 9 significant digits (the rule of the repository's
// differential tests), so summation-order differences between strategies
// and executor degrees do not count as disagreement.
func canonKey(res *sqldb.Result) string {
	n := res.NumRows()
	rows := make([]string, n)
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for j, c := range res.Cols {
			if j > 0 {
				sb.WriteByte('|')
			}
			d := c.Get(i)
			if d.T == sqldb.TFloat {
				fmt.Fprintf(&sb, "%.9g", d.F)
			} else {
				sb.WriteString(d.String())
			}
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// oracle holds reference answers keyed by SQL text, computed untimed on the
// reference engine by a strategy independent of the one under test.
type oracle struct {
	ref      *stack
	strategy strategies.Strategy
	want     map[string]string
}

// referenceStrategy is DB-UDF for the embedded DL2SQL workload and
// DL2SQL-OP for the served DB-UDF/DB-PyTorch workloads.
func newOracle(in *inputs) (*oracle, error) {
	ref, err := newReference(in)
	if err != nil {
		return nil, err
	}
	var s strategies.Strategy = &strategies.DL2SQL{Optimized: true}
	if !in.wl.served {
		s = &strategies.DBUDF{}
	}
	return &oracle{ref: ref, strategy: s, want: map[string]string{}}, nil
}

// answer computes the reference answer of a collaborative (col=true) or
// plain query on the reference engine's current tables.
func (o *oracle) answer(sql string, col bool) (string, error) {
	var res *sqldb.Result
	var err error
	if col {
		var q *colquery.Query
		if q, err = colquery.Analyze(sql); err != nil {
			return "", err
		}
		res, _, err = o.strategy.Execute(context.Background(), o.ref.env, q)
	} else {
		res, err = o.ref.db.Exec(sql)
	}
	if err != nil {
		return "", fmt.Errorf("reference answer (%s): %w", o.strategy.Name(), err)
	}
	return canonKey(res), nil
}

// prepare fills the reference answers for every query the run can send
// before any write.
func (o *oracle) prepare(in *inputs) error {
	for _, sql := range in.colSQL {
		k, err := o.answer(sql, true)
		if err != nil {
			return err
		}
		o.want[sql] = k
	}
	for _, sql := range in.dash {
		k, err := o.answer(sql, false)
		if err != nil {
			return err
		}
		o.want[sql] = k
	}
	return nil
}

// check compares a result with the reference answer of sql.
func (o *oracle) check(sql string, res *sqldb.Result) error {
	want, ok := o.want[sql]
	if !ok {
		return fmt.Errorf("no reference answer for %q", sql)
	}
	if got := canonKey(res); got != want {
		return fmt.Errorf("wrong answer for %q:\n--- want ---\n%s\n--- got ---\n%s", sql, want, got)
	}
	return nil
}

// baseDates lists the base video rows' IDs and dates.
func (o *oracle) baseDates() (*sqldb.Result, error) {
	return o.ref.db.Exec(fmt.Sprintf("SELECT videoID, date FROM video WHERE videoID < %d", baseVideo))
}

// finalCheck runs after an ingest window. Every acknowledged INSERT must be
// in the served tables, and nothing that was never sent; then the inserts
// the server holds are replayed, in order, into the reference engine
// through Prepared.Exec (each timed), and each query type answered by the
// server must match the reference strategy on the final tables.
func (b *bench) finalCheck(writes []outcome) ([]outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	s := b.readers[0].sessions[0]
	present := map[string]map[int64]bool{}
	for table, sql := range map[string]string{
		"video":  fmt.Sprintf("SELECT videoID FROM video WHERE videoID >= %d", baseVideo),
		"fabric": fmt.Sprintf("SELECT transID FROM fabric WHERE transID >= %d", baseFabric),
	} {
		res, err := s.Query(ctx, sql)
		if err != nil {
			return nil, fmt.Errorf("listing inserted %s rows: %w", table, err)
		}
		present[table] = map[int64]bool{}
		for i := 0; i < res.NumRows(); i++ {
			id, _ := res.Cols[0].Get(i).AsInt()
			present[table][id] = true
		}
	}
	sent := 0
	for _, o := range writes {
		if present[o.op.table][o.op.id] {
			sent++
		} else if o.err == nil {
			return nil, fmt.Errorf("acknowledged insert of %s %d is missing", o.op.table, o.op.id)
		}
	}
	if n := len(present["video"]) + len(present["fabric"]); n != sent {
		return nil, fmt.Errorf("%d inserted rows present, %d of them were sent", n, sent)
	}

	prepared := map[string]*sqldb.Prepared{}
	for table, sql := range insertSQL {
		p, err := b.orc.ref.db.Prepare(sql)
		if err != nil {
			return nil, err
		}
		prepared[table] = p
	}
	for _, o := range writes {
		if !present[o.op.table][o.op.id] {
			continue
		}
		start := time.Now()
		if _, err := prepared[o.op.table].Exec(o.op.args...); err != nil {
			return nil, fmt.Errorf("replaying an insert into the reference: %w", err)
		}
		b.insertMs = append(b.insertMs, ms(time.Since(start)))
	}

	var outs []outcome
	for _, sql := range b.in.typeSQL {
		want, err := b.orc.answer(sql, true)
		if err != nil {
			return outs, err
		}
		b.orc.want[sql] = want
		out := b.do(b.readers[0], &op{kind: opCol, sql: sql, strategy: stratDBUDF}, false, true)
		outs = append(outs, out)
		if !out.ok() {
			return outs, fmt.Errorf("final tables: %w", errors.Join(out.err, out.wrong))
		}
	}
	return outs, nil
}
