package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sqldb"
	"repro/internal/strategies"
)

// stack is the system under test: the engine and bound models, plus the
// HTTP front end for served workloads.
type stack struct {
	ds  *iotdata.Dataset
	db  *sqldb.DB
	env *strategies.Context
	srv *server.Server
	hs  *http.Server
	url string
	// serving is closed when the listener's Serve call has returned.
	serving chan struct{}
}

// setup phase names; each is a span in a traced run and a per-layer metric.
const (
	phaseGenerate = "iotdata.generate"
	phaseRepo     = "modelrepo.build"
	phaseBind     = "strategies.bind"
	phaseServer   = "server.start"
	phaseWarmup   = "setup.warmup"
)

// generate builds the dataset and swaps in the run's keyframes.
func generate(keyframes [][]byte) (*iotdata.Dataset, error) {
	ds, err := iotdata.Generate(iotdata.Config{Scale: dataScale, KeyframeSide: keyframeSide, Seed: dataSeed, PatternCount: patternCount})
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	video := ds.DB.GetTable("video")
	cols := video.SnapshotCols()
	ki := video.Schema.ColIndex("keyframe")
	if cols[ki].Len() != len(keyframes) {
		return nil, fmt.Errorf("video has %d rows, want %d", cols[ki].Len(), len(keyframes))
	}
	kf := sqldb.NewColumn(sqldb.TBlob)
	kf.Blobs = append([][]byte(nil), keyframes...)
	cols[ki] = kf
	if err := video.ReplaceData(cols); err != nil {
		return nil, err
	}
	return ds, nil
}

// bind compiles and calibrates the default nUDF models against ds.
func bind(ds *iotdata.Dataset, repo *modelrepo.Repository) (*strategies.Context, error) {
	env := strategies.NewContext(ds)
	if err := env.BindDefaults(repo, 20); err != nil {
		return nil, fmt.Errorf("binding models: %w", err)
	}
	return env, nil
}

// newStack builds the stack the way cmd/sqlserved -iot -models does with
// its default flags (the embedded workload gets the same engine and
// strategy configuration without the listener). phase receives each set-up
// phase's duration.
func newStack(in *inputs, tr *tracer, phase func(name string, d time.Duration)) (*stack, error) {
	op := tr.newOp()
	timed := func(name string, fn func() error) error {
		sp := tr.start(op, nil, name)
		start := time.Now()
		err := fn()
		phase(name, time.Since(start))
		sp.finish()
		return err
	}
	st := &stack{}
	var repo *modelrepo.Repository
	err := timed(phaseGenerate, func() error {
		var err error
		st.ds, err = generate(in.keyframes)
		return err
	})
	if err != nil {
		return nil, err
	}
	st.db = st.ds.DB
	if err := timed(phaseRepo, func() error { repo = modelrepo.NewRepository(keyframeSide, 99); return nil }); err != nil {
		return nil, err
	}
	err = timed(phaseBind, func() error {
		db := st.db
		db.Parallelism = 0
		db.EnableCache(128)
		if db.Metrics == nil {
			db.Metrics = obs.NewRegistry()
		}
		db.History = obs.NewQueryHistory(512)
		db.History.SetSlowThreshold(100 * time.Millisecond)
		db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{
			MaxTraces: 256, SlowThreshold: 250 * time.Millisecond, SampleEvery: 64, Metrics: db.Metrics,
		})
		db.EnableSysCatalog()
		env, err := bind(st.ds, repo)
		if err != nil {
			return err
		}
		env.Metrics = db.Metrics
		env.History = db.History
		// The embedded workload runs DL2SQL the way cmd/dl2sql and expgen
		// do, without a strategy-level trace: a DL2SQL query under an armed
		// trace dereferences a nil span once the trace's span budget is
		// spent (dl2sql.Translator.record). Engine statements keep their
		// always-on traces.
		if in.wl.served {
			env.Traces = db.Traces
		}
		env.Breaker = &strategies.Breaker{}
		env.AttachObservability(db)
		st.env = env
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !in.wl.served {
		return st, nil
	}
	err = timed(phaseServer, func() error {
		st.srv = server.New(st.db, st.env, server.Config{
			Admission:          server.AdmissionConfig{MaxConcurrent: 8, MaxQueue: 64},
			SessionIdleTimeout: 15 * time.Minute,
			DrainGrace:         5 * time.Second,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		st.hs = &http.Server{Handler: st.srv.Handler()}
		st.serving = make(chan struct{})
		go func() {
			defer close(st.serving)
			st.hs.Serve(ln)
		}()
		st.url = "http://" + ln.Addr().String()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		status, err := server.Dial(st.url).Health(ctx)
		if err == nil && status != "ok" {
			err = fmt.Errorf("health status %q", status)
		}
		return err
	})
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close drains and stops the server, if any; the serving goroutine has
// returned once close does.
func (st *stack) close() {
	if st.srv == nil {
		return
	}
	st.srv.Drain()
	if st.hs != nil {
		st.hs.Close()
		<-st.serving
	}
	st.srv = nil
}

// newReference builds the oracle's own engine: the same data and models,
// but serial, uncached and unobserved.
func newReference(in *inputs) (*stack, error) {
	ds, err := generate(in.keyframes)
	if err != nil {
		return nil, err
	}
	ds.DB.Parallelism = 1
	env, err := bind(ds, modelrepo.NewRepository(keyframeSide, 99))
	if err != nil {
		return nil, err
	}
	return &stack{ds: ds, db: ds.DB, env: env}, nil
}
