package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/colquery"
	"repro/internal/dl2sql"
	"repro/internal/iotdata"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/strategies"
	"repro/internal/tensor"
)

// Per-layer metrics of a traced run. Each comes from a span the benchmark
// recorded around its own call into a module's public function, or from a
// counter the program already exposes; none is traced inside the program.
// A metric that does not apply to a workload (server metrics on the
// embedded workload, INSERT metrics without writes) reads 0.

// opMetricNames maps the Profile operator kinds to metric suffixes.
var opMetricNames = map[string]string{
	"GroupBy": "groupby", "Join": "join", "Scan": "scan",
	"Filter": "filter", "Project": "project", "Sort": "sort",
}

// stepCategories maps DL2SQL pipeline step labels to the Fig. 9 blocks;
// "encode" is the part of Translator.Infer no step accounts for (loading
// the input into the feature-map table).
var stepCategories = []struct{ prefix, name string }{
	{"Conv", "conv"}, {"Reshape", "conv"}, {"BN", "norm"}, {"ReLU", "relu"},
	{"Pool", "pool"}, {"FC", "fc"}, {"Classification", "classify"},
}

var stepNames = []string{"encode", "conv", "norm", "relu", "pool", "fc", "classify"}

func (b *bench) layerMetrics(reads, writes []outcome, before, after counters, rec *runRecord) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	all := append(append([]outcome(nil), reads...), writes...)
	done := 0
	for _, o := range all {
		if o.err == nil {
			done++
		}
	}

	// Set-up phases: medians over the run's set-ups.
	for _, p := range []struct{ phase, name string }{
		{phaseGenerate, "iotdata.generate_ms"}, {phaseRepo, "modelrepo.build_ms"},
		{phaseBind, "strategies.bind_ms"}, {phaseServer, "server.start_ms"}, {phaseWarmup, "setup.warmup_ms"},
	} {
		put(p.name, "ms", median(b.phases[p.phase]))
	}

	// Window: server split, tracing overhead, span coverage and self times.
	var wire, request []float64
	for _, o := range reads {
		if o.err != nil {
			continue
		}
		if o.traced && b.wl.served {
			request = append(request, o.serverMs)
			wire = append(wire, ms(o.rtt)-o.serverMs)
		}
	}
	put("server.wire_ms.p50", "ms", median(wire))
	put("server.request_ms.p50", "ms", median(request))
	put("server.admission_wait_ms.p99", "ms", 1000*b.st.db.Metrics.Histogram(obs.MetricServerQueueSeconds).Summary().P99)
	put("server.queued_share", "fraction", share(float64(after.queued-before.queued), float64(after.admitted-before.admitted)))
	put("trace.overhead_share", "fraction", tracingOverhead(reads))

	tree := newSpanTree(b.tr.snapshot())
	selfByLayer := map[string]float64{}
	var opTotal, opCovered float64
	roots := 0
	for _, s := range tree.spans {
		if s.Name != "bench.op" {
			continue
		}
		roots++
		opTotal += float64(s.End - s.Start)
		opCovered += float64(tree.covered(s))
		selfByLayer["bench"] += float64(tree.self(s))
		for _, k := range tree.children[s.ID] {
			selfByLayer[k.layer()] += float64(tree.self(k))
		}
	}
	put("trace.coverage", "fraction", share(opCovered, opTotal))
	for _, l := range []string{"bench", "colquery", "strategies", "server"} {
		put("trace.self_ms_per_op."+l, "ms", share(selfByLayer[l], float64(roots))/1e6)
	}

	// Engine counters over the window.
	var stmts []obs.QueryRecord
	for _, r := range after.history {
		if r.ID > before.historyMax && (r.Strategy == "" || r.Strategy == "sql") {
			stmts = append(stmts, r)
		}
	}
	// The history ring holds the last 512 statements; normalise by the
	// operations that started within the span it still covers.
	var scanned, morsels, parOps int64
	var busy, wall time.Duration
	covered := done
	if len(stmts) > 0 {
		first := stmts[0].Start
		for _, r := range stmts {
			scanned += r.RowsScanned
			morsels += r.Morsels
			parOps += r.ParallelOps
			busy += r.Busy
			wall += r.Wall
			if r.Start.Before(first) {
				first = r.Start
			}
		}
		if stmts[0].ID != before.historyMax+1 {
			covered = 0
			for _, o := range all {
				if o.err == nil && !o.start.Before(first) {
					covered++
				}
			}
		}
	}
	put("sqldb.rows_scanned_per_query", "count", share(float64(scanned), float64(covered)))
	put("sqldb.busy_share", "fraction", share(float64(busy), float64(wall)))
	put("par.morsels_per_query", "count", share(float64(morsels), float64(covered)))
	put("par.parallel_ops_per_query", "count", share(float64(parOps), float64(covered)))
	for op, name := range opMetricNames {
		var d int64
		if s := after.prof.Ops[op]; s != nil {
			d = s.Nanos
		}
		if s := before.prof.Ops[op]; s != nil {
			d -= s.Nanos
		}
		put("sqldb.op_ms."+name, "ms", share(float64(d)/1e6, float64(done)))
	}
	put("sqldb.alloc_kb_per_query", "kB", share(float64(after.alloc-before.alloc)/1024, float64(done)))
	sh, sm := after.cache.Stmt.Hits-before.cache.Stmt.Hits, after.cache.Stmt.Misses-before.cache.Stmt.Misses
	ph, pm := after.cache.Plan.Hits-before.cache.Plan.Hits, after.cache.Plan.Misses-before.cache.Plan.Misses
	put("cache.stmt_hit_rate", "fraction", share(float64(sh), float64(sh+sm)))
	put("cache.plan_hit_rate", "fraction", share(float64(ph), float64(ph+pm)))
	acked := 0
	for _, o := range writes {
		if o.err == nil {
			acked++
		}
	}
	put("cache.plan_invalidations_per_write", "count",
		share(float64(after.cache.PlanInvalidations-before.cache.PlanInvalidations), float64(acked)))
	put("obs.spans_per_trace.p50", "count", b.st.db.Metrics.Histogram(obs.MetricTraceSpans).Summary().P50)
	put("strategies.repeat_keyframe_share", "fraction", b.repeatShare(reads, writes))

	for _, name := range []string{"latency_p50_ms", "latency_tail_ms", "throughput_qps", "error_rate"} {
		put("ops."+name, rec.Measured[name].Unit, rec.Measured[name].Value)
	}
	put("ingest.write_p50_ms", "ms", rec.Measured["write_p50_ms"].Value)
	put("ingest.write_tail_ms", "ms", rec.Measured["write_tail_ms"].Value)
	put("gen.lateness_p99_ms", "ms", rec.LatenessP99Ms)
	put("sqldb.insert_ms.p50", "ms", median(b.insertMs))

	// Replays: the workload's inputs run again, one layer call at a time.
	if err := b.replayFront(put); err != nil {
		return nil, err
	}
	steps, err := b.replayDL2SQL(put)
	if err != nil {
		return nil, err
	}
	if err := b.replayNN(put); err != nil {
		return nil, err
	}
	if err := b.replayStrategies(put, steps); err != nil {
		return nil, err
	}
	return m, nil
}

// timed runs fn inside a span of its own operation and returns its
// duration.
func (b *bench) timed(name string, fn func() error) (time.Duration, error) {
	sp := b.tr.start(b.tr.newOp(), nil, name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sp.finish()
	return d, err
}

// replayFront times query analysis and planning on the workload's SQL.
func (b *bench) replayFront(put func(string, string, float64)) error {
	var analyze, plan []float64
	for rep := 0; rep < 10; rep++ {
		for _, sql := range b.in.colSQL {
			d, err := b.timed("colquery.analyze", func() error { _, err := colquery.Analyze(sql); return err })
			if err != nil {
				return err
			}
			analyze = append(analyze, float64(d)/1e3)
		}
	}
	// Collaborative SQL does not plan without its nUDFs registered; the
	// engine plans it inside the strategies, so only plain SQL is timed.
	plain := append([]string(nil), b.in.dash...)
	if len(plain) == 0 {
		plain = append(plain, fmt.Sprintf("SELECT videoID, keyframe FROM video V WHERE V.date > '%s' and V.date < '%s'", b.in.dateLo, b.in.dateHi))
	}
	for rep := 0; rep < 5; rep++ {
		for _, sql := range plain {
			d, err := b.timed("sqldb.plan", func() error { _, err := b.st.db.PlanSelect(sql, nil); return err })
			if err != nil {
				return fmt.Errorf("planning %q: %w", sql, err)
			}
			plan = append(plan, float64(d)/1e3)
		}
	}
	put("colquery.analyze_us.p50", "us", median(analyze))
	put("sqldb.plan_us.p50", "us", median(plan))
	return nil
}

// candidateKeyframes returns the keyframes the workload's video-side
// predicate keeps, on the current tables.
func (b *bench) candidateKeyframes() ([]*tensor.Tensor, error) {
	res, err := b.st.db.Exec(fmt.Sprintf("SELECT keyframe FROM video V WHERE V.date > '%s' and V.date < '%s'", b.in.dateLo, b.in.dateHi))
	if err != nil {
		return nil, err
	}
	var out []*tensor.Tensor
	for i := 0; i < res.NumRows(); i++ {
		t, err := iotdata.KeyframeTensor(res.Cols[0].Get(i).B)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// replayDL2SQL stores each bound model and runs SQL inference on a few
// candidate keyframes. It returns the pipeline statements one inference
// records, per nUDF, for counting a strategy's inferences from its steps.
func (b *bench) replayDL2SQL(put func(string, string, float64)) (map[string]int, error) {
	kfs, err := b.candidateKeyframes()
	if err != nil {
		return nil, err
	}
	if len(kfs) > 4 {
		kfs = kfs[:4]
	}
	var store, infer []float64
	cats := map[string]float64{}
	perUDF := map[string]int{}
	inferences, statements := 0, 0
	for n, name := range []string{"nudf_detect", "nudf_classify"} {
		model := b.st.env.Bindings[name].Entry.Model
		tr := dl2sql.NewTranslator(b.st.db, fmt.Sprintf("perfbench_probe_%d", n))
		var sm *dl2sql.StoredModel
		d, err := b.timed("dl2sql.store_model", func() error {
			var err error
			sm, err = tr.StoreModel(model)
			return err
		})
		if err != nil {
			return nil, err
		}
		store = append(store, ms(d))
		for _, kf := range kfs {
			tr.ResetSteps()
			d, err := b.timed("dl2sql.infer", func() error { _, _, err := tr.Infer(sm, kf); return err })
			if err != nil {
				return nil, err
			}
			infer = append(infer, ms(d))
			var stepSum time.Duration
			for _, s := range tr.Steps {
				stepSum += s.Time
				for _, c := range stepCategories {
					if strings.HasPrefix(s.Label, c.prefix) {
						cats[c.name] += ms(s.Time)
						break
					}
				}
			}
			cats["encode"] += ms(d - stepSum)
			inferences++
			statements += len(tr.Steps)
			perUDF[name] = len(tr.Steps)
		}
		for _, t := range sm.TableNames() {
			b.st.db.DropTable(t)
		}
	}
	perUDF["nudf_recog"] = perUDF["nudf_classify"] // the same repository model
	put("dl2sql.store_model_ms.p50", "ms", median(store))
	put("dl2sql.infer_ms.p50", "ms", median(infer))
	for _, c := range stepNames {
		put("dl2sql.step_ms."+c, "ms", share(cats[c], float64(inferences)))
	}
	put("dl2sql.statements_per_infer", "count", share(float64(statements), float64(inferences)))
	return perUDF, nil
}

// replayNN times model decoding and native forward passes.
func (b *bench) replayNN(put func(string, string, float64)) error {
	kfs, err := b.candidateKeyframes()
	if err != nil {
		return err
	}
	var decode, forward []float64
	for _, name := range []string{"nudf_detect", "nudf_classify", "nudf_recog"} {
		bd := b.st.env.Bindings[name]
		for rep := 0; rep < 5; rep++ {
			d, err := b.timed("nn.decode", func() error { _, err := nn.DecodeBytes(bd.Artifact); return err })
			if err != nil {
				return err
			}
			decode = append(decode, ms(d))
		}
		for _, kf := range kfs {
			d, err := b.timed("nn.forward", func() error { _, _, err := bd.Entry.Model.Predict(kf); return err })
			if err != nil {
				return err
			}
			forward = append(forward, float64(d)/1e3)
		}
	}
	model := b.st.env.Bindings["nudf_detect"].Entry.Model
	d, err := b.timed("nn.batch", func() error { _, err := model.PredictBatch(kfs); return err })
	if err != nil {
		return err
	}
	put("nn.decode_ms.p50", "ms", median(decode))
	put("nn.forward_us.p50", "us", median(forward))
	put("nn.batch_us_per_sample", "us", share(float64(d)/1e3, float64(len(kfs))))
	return nil
}

// replayStrategies runs one query per type under all four strategies,
// embedded, on the stack's current tables.
func (b *bench) replayStrategies(put func(string, string, float64), stepsPerInfer map[string]int) error {
	names := []string{stratDBUDF, stratDBPyTorch, stratDL2SQL, stratDL2SQLOP}
	own := map[string]bool{stratDBUDF: true, stratDBPyTorch: true}
	if !b.wl.served {
		own = map[string]bool{stratDL2SQL: true, stratDL2SQLOP: true}
	}
	exec := map[string][]float64{}
	cands := map[string]float64{}
	var pipe []float64
	var reported, measured float64
	var udfCalls, inferCalls, flops float64
	ownRuns := 0
	// Replays run without a strategy-level trace, which DL2SQL cannot run
	// under (see newStack).
	env := *b.st.env
	env.Traces = nil
	for _, sql := range b.in.typeSQL {
		q, err := colquery.Analyze(sql)
		if err != nil {
			return err
		}
		udf := q.UDFNames[0]
		model := b.st.env.Bindings[udf].Entry.Model
		for _, name := range names {
			s := newStrategy(name)
			mark := lastID(b.st.db.History.Snapshot())
			var bd strategies.CostBreakdown
			d, err := b.timed("strategies.execute", func() error {
				var err error
				_, bd, err = strategies.ExecuteWithFallback(context.Background(), &env, s, q)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s replay: %w", name, err)
			}
			exec[name] = append(exec[name], ms(d))
			var udfs, infers int64
			for _, r := range b.st.db.History.Snapshot() {
				if r.ID > mark {
					udfs += r.UDFCalls
					infers += r.InferCalls
				}
			}
			inferences := float64(udfs)
			switch s := s.(type) {
			case *strategies.DBPyTorch:
				inferences = float64(infers)
			case *strategies.DL2SQL:
				inferences = share(float64(len(s.LastSteps)), float64(stepsPerInfer[udf]))
				cands[name] += inferences
			}
			if own[name] {
				ownRuns++
				reported += bd.Total()
				measured += d.Seconds()
				udfCalls += float64(udfs)
				inferCalls += float64(infers)
				flops += inferences * float64(model.FLOPs())
			}
		}
		n := len(exec[stratDBUDF])
		pipe = append(pipe, exec[stratDBPyTorch][n-1]-exec[stratDBUDF][n-1])
	}
	for _, name := range names {
		put("strategies.exec_ms."+name+".p50", "ms", median(exec[name]))
	}
	put("strategies.pipe_ms.p50", "ms", median(pipe))
	put("strategies.modelled_share", "fraction", share(reported-measured, reported))
	put("strategies.udf_calls_per_query", "count", share(udfCalls, float64(ownRuns)))
	put("strategies.infer_calls_per_query", "count", share(inferCalls, float64(ownRuns)))
	put("nn.flops_per_query", "flop", share(flops, float64(ownRuns)))
	nq := float64(len(b.in.typeSQL))
	put("hints.candidates_per_query.DL2SQL", "count", cands[stratDL2SQL]/nq)
	put("hints.candidates_per_query.DL2SQL-OP", "count", cands[stratDL2SQLOP]/nq)
	put("hints.pruned_share", "fraction", 1-share(cands[stratDL2SQLOP], cands[stratDL2SQL]))
	return nil
}

// lastID is the highest record ID in a history snapshot.
func lastID(recs []obs.QueryRecord) int64 {
	var id int64
	for _, r := range recs {
		id = max(id, r.ID)
	}
	return id
}

// repeatShare is the share of the keyframes the window's collaborative
// reads made candidates (the rows their video-side date window keeps) that
// an earlier read had already made candidates: a property of the
// workload, computed from the generated inputs.
func (b *bench) repeatShare(reads, writes []outcome) float64 {
	type row struct {
		id   int64
		date string
	}
	var rows []row
	res, err := b.orc.baseDates()
	if err != nil {
		return 0
	}
	for i := 0; i < res.NumRows(); i++ {
		id, _ := res.Cols[0].Get(i).AsInt()
		rows = append(rows, row{id, res.Cols[1].Get(i).S})
	}
	// Inserted rows become visible to reads that start after the INSERT
	// was acknowledged.
	type ins struct {
		row
		at time.Time
	}
	var inserted []ins
	for _, o := range writes {
		if o.err == nil && o.op.table == "video" {
			inserted = append(inserted, ins{row{o.op.id, o.op.args[2].S}, o.start.Add(o.rtt)})
		}
	}
	seen := map[int64]bool{}
	var total, repeats float64
	visit := func(r row, o *op) {
		if r.date > o.dateLo && r.date < o.dateHi {
			total++
			if seen[r.id] {
				repeats++
			}
			seen[r.id] = true
		}
	}
	ordered := append([]outcome(nil), reads...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].start.Before(ordered[j].start) })
	for _, o := range ordered {
		if o.op.kind != opCol {
			continue
		}
		for _, r := range rows {
			visit(r, o.op)
		}
		for _, r := range inserted {
			if r.at.Before(o.start) {
				visit(r.row, o.op)
			}
		}
	}
	return share(repeats, total)
}

// tracingOverhead compares traced with untraced reads of the window: per
// distinct read (query and strategy), the difference of the medians,
// weighted by the read's count, over the weighted untraced medians.
func tracingOverhead(reads []outcome) float64 {
	type key struct{ sql, strategy string }
	lat := map[key][2][]float64{}
	for _, o := range reads {
		if o.err != nil {
			continue
		}
		k := key{o.op.sql, o.op.strategy}
		l := lat[k]
		i := 0
		if o.traced {
			i = 1
		}
		l[i] = append(l[i], ms(o.latency))
		lat[k] = l
	}
	var diff, base float64
	for _, l := range lat {
		if len(l[0]) == 0 || len(l[1]) == 0 {
			continue
		}
		n := float64(len(l[0]) + len(l[1]))
		diff += n * (median(l[1]) - median(l[0]))
		base += n * median(l[0])
	}
	return share(diff, base)
}
