package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/colquery"
	"repro/internal/server"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// opTimeout bounds one operation so a hung request fails instead of
// stalling the run.
const opTimeout = 30 * time.Second

// outcome is what happened to one operation.
type outcome struct {
	op *op
	// latency runs from the due time (open loop) or the send (closed loop)
	// to the answer; rtt from the send to the answer.
	latency, rtt time.Duration
	// lateness is how late the generator woke for the op's due time.
	lateness time.Duration
	start    time.Time
	err      error   // the operation failed
	wrong    error   // the answer differs from the reference
	checked  bool    // the answer was compared with a reference
	traced   bool    // the op carried spans (traced run only)
	serverMs float64 // traced served op: the server's reported wall_ms
}

func (o outcome) ok() bool { return o.err == nil && o.wrong == nil }

// wallTap passes HTTP traffic through and, when on, reads the wall_ms the
// server reports in its JSON envelope. One client connection's calls are
// sequential, so a tap needs no lock.
type wallTap struct {
	base http.RoundTripper
	on   bool
	last float64
}

func (t *wallTap) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil || !t.on {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var envelope struct {
		WallMs float64 `json:"wall_ms"`
	}
	t.last = 0
	if json.Unmarshal(body, &envelope) == nil {
		t.last = envelope.WallMs
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// client is one keep-alive connection carrying sessions of several
// tenants, plus the prepared INSERTs of a writer.
type client struct {
	transport *http.Transport
	tap       *wallTap
	sessions  []*server.Client
	stmts     map[string]*server.Stmt
}

func newClient(ctx context.Context, url string, tenants []string, writer bool) (*client, error) {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	c := &client{transport: tp, tap: &wallTap{base: tp}, stmts: map[string]*server.Stmt{}}
	hc := &http.Client{Transport: c.tap}
	for _, tenant := range tenants {
		s := server.Dial(url).WithHTTPClient(hc)
		if err := s.Connect(ctx, tenant); err != nil {
			c.close()
			return nil, fmt.Errorf("opening a %s session: %w", tenant, err)
		}
		c.sessions = append(c.sessions, s)
	}
	if writer {
		for table, sql := range insertSQL {
			st, err := c.sessions[0].Prepare(ctx, sql)
			if err != nil {
				c.close()
				return nil, fmt.Errorf("preparing the %s insert: %w", table, err)
			}
			c.stmts[table] = st
		}
	}
	return c, nil
}

func (c *client) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range c.sessions {
		s.Close(ctx)
	}
	c.transport.CloseIdleConnections()
}

func newStrategy(name string) strategies.Strategy {
	switch name {
	case stratDL2SQL:
		return &strategies.DL2SQL{}
	case stratDL2SQLOP:
		return &strategies.DL2SQL{Optimized: true}
	case stratDBUDF:
		return &strategies.DBUDF{}
	}
	return &strategies.DBPyTorch{}
}

// do runs one operation: embedded when c is nil, otherwise over c's
// connection. A traced op records a root span and one child per layer call.
func (b *bench) do(c *client, o *op, traced bool, check bool) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var tr *tracer
	if traced {
		tr = b.tr
	}
	id := tr.newOp()
	root := tr.start(id, nil, "bench.op")
	start := time.Now()
	var res *sqldb.Result
	var err error
	if c == nil {
		sp := tr.start(id, root, "colquery.analyze")
		q, aerr := colquery.Analyze(o.sql)
		sp.finish()
		err = aerr
		if err == nil {
			sp = tr.start(id, root, "strategies.execute")
			res, _, err = strategies.ExecuteWithFallback(ctx, b.st.env, newStrategy(o.strategy), q)
			sp.finish()
		}
	} else {
		c.tap.on = traced
		s := c.sessions[o.tenant]
		switch o.kind {
		case opCol:
			var cr *server.ColResult
			if cr, err = s.ColQuery(ctx, o.sql, o.strategy, false); err == nil {
				res = cr.Result
			}
		case opSQL:
			res, err = s.Query(ctx, o.sql)
		case opInsert:
			_, err = c.stmts[o.table].Exec(ctx, o.args...)
		}
	}
	end := time.Now()
	out := outcome{op: o, start: start, rtt: end.Sub(start), latency: end.Sub(start), err: err, traced: traced}
	if c != nil && traced && err == nil {
		out.serverMs = c.tap.last
		tr.addReported(root, "server.request", end, time.Duration(c.tap.last*float64(time.Millisecond)))
	}
	root.finish()
	if err == nil && check && o.kind != opInsert {
		out.checked = true
		out.wrong = b.orc.check(o.sql, res)
	}
	return out
}

// closedLoop is one client sending the next query when the previous one
// answered. It runs whole rounds until the window has passed, so every
// run does the same multiset of operations; odd rounds are traced in a
// traced run.
func (b *bench) closedLoop(window time.Duration) ([]outcome, time.Duration) {
	var outs []outcome
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < window; r++ {
		traced := b.tr != nil && r%2 == 1
		for _, o := range b.in.round() {
			outs = append(outs, b.do(nil, o, traced, true))
		}
	}
	return outs, time.Since(start)
}

// openLoop sends each op of sched at its due time over c, whether or not
// the previous answer has arrived late; a late answer delays the next send,
// and that wait counts in the next op's latency. Odd ops are traced in a
// traced run.
func (b *bench) openLoop(c *client, sched []*op, start time.Time, check bool) []outcome {
	outs := make([]outcome, 0, len(sched))
	for i, o := range sched {
		due := start.Add(o.due)
		var late time.Duration
		if now := time.Now(); now.Before(due) {
			time.Sleep(due.Sub(now))
			late = time.Since(due)
		}
		out := b.do(c, o, b.tr != nil && i%2 == 1, check)
		out.lateness = late
		out.latency = out.start.Add(out.rtt).Sub(due)
		outs = append(outs, out)
	}
	return outs
}
