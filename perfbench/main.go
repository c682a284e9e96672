// Command perfbench is the repository's benchmark. It measures what a user
// of the system waits for and pays when running the paper's collaborative
// queries (Types 1–4): latency, throughput, CPU and memory per operation,
// and set-up time, on the embedded engine (sql-infer) and through the
// sqlserved stack on a loopback listener (served-udf, ingest-mix). Every
// answer is checked against a reference computed, untimed, by an
// independent strategy.
//
// A traced run (-trace 1) repeats the workload with the benchmark's own
// spans around its calls into the internal/* modules, then replays the
// workload's queries layer by layer, and reports per-layer metrics.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload served-udf --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the run
// record (environment, per-phase counts, generator lateness).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sqldb"
)

func main() { os.Exit(run()) }

// bench is one run of one workload.
type bench struct {
	wl      workload
	seconds int
	in      *inputs
	tr      *tracer // nil in an untraced run
	orc     *oracle
	st      *stack
	readers []*client // served workloads: one per connection
	writer  *client   // ingest-mix
	phases  map[string][]float64
	warmup  []outcome
	// insertMs times the ingest INSERTs replayed through Prepared.Exec.
	insertMs []float64
}

type phaseCount struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Wrong     int `json:"wrong"`
	Unchecked int `json:"unchecked"`
}

func countPhase(outs []outcome) phaseCount {
	var p phaseCount
	for _, o := range outs {
		p.Sent++
		switch {
		case o.err != nil:
			p.Failed++
		case o.wrong != nil:
			p.Wrong++
		default:
			p.Succeeded++
			if !o.checked && o.op.kind != opInsert {
				p.Unchecked++
			}
		}
	}
	return p
}

// runRecord is the environment and bookkeeping of a run.
type runRecord struct {
	Workload      string                `json:"workload"`
	Seed          int64                 `json:"seed"`
	Seconds       int                   `json:"seconds"`
	Traced        bool                  `json:"traced"`
	Commit        string                `json:"commit"`
	GoVersion     string                `json:"go_version"`
	NumCPU        int                   `json:"num_cpu"`
	GOMAXPROCS    int                   `json:"gomaxprocs"`
	Scale         int                   `json:"scale"`
	KeyframeSide  int                   `json:"keyframe_side"`
	ReadRate      float64               `json:"read_rate_per_s"`
	WriteRate     float64               `json:"write_rate_per_s"`
	LimitMs       float64               `json:"latency_limit_ms"`
	TailPct       float64               `json:"latency_tail_pct"`
	Phases        map[string]phaseCount `json:"phases"`
	LatenessP99Ms float64               `json:"generator_lateness_p99_ms"`
	MaxLatenessMs float64               `json:"generator_lateness_limit_ms"`
	Valid         bool                  `json:"valid"`
	// Measured holds the wall-clock figures users wait on: read latency
	// and throughput, INSERT latency, and the error rate. They are printed
	// on every run but are not end-to-end metrics of BENCHMARK.json: on a
	// shared host CPU steal moves them between runs by more than any bound
	// a benchmark may set. A traced run reports them as ops.* and ingest.*
	// per-layer metrics.
	Measured   map[string]metric `json:"measured"`
	FinalCheck string            `json:"final_check,omitempty"`
	Errors     []string          `json:"errors,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: sql-infer, served-udf or ingest-mix")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 20, "length of the measured window")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload sql-infer|served-udf|ingest-mix -seed N -seconds S -trace 0|1")
		return 2
	}
	rec, res, err := measure(wl, *seed, *seconds, *traced == 1, *out)
	if rec != nil {
		line, _ := json.Marshal(rec)
		fmt.Printf("run-record: %s\n", line)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func measure(wl workload, seed int64, seconds int, traced bool, outDir string) (*runRecord, *result, error) {
	in, err := newInputs(wl, seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	b := &bench{wl: wl, in: in, seconds: seconds, phases: map[string][]float64{}}
	if traced {
		b.tr = newTracer()
	}
	rec := &runRecord{
		Workload: wl.name, Seed: seed, Seconds: seconds, Traced: traced,
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale: dataScale, KeyframeSide: keyframeSide, ReadRate: wl.readRate, WriteRate: wl.writeRate,
		LimitMs: wl.limitMs, TailPct: wl.tailPct, MaxLatenessMs: maxLatenessMs(wl), Phases: map[string]phaseCount{},
	}

	// The oracle's answers are computed before set-up and outside every
	// timing.
	if b.orc, err = newOracle(in); err != nil {
		return rec, nil, err
	}
	if err := b.orc.prepare(in); err != nil {
		return rec, nil, err
	}

	var setups []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			b.teardown()
		}
		start := time.Now()
		if err := b.setup(); err != nil {
			b.teardown()
			return rec, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.teardown()
	rec.Phases["warmup"] = countPhase(b.warmup)

	before := b.counters()
	window := time.Duration(seconds) * time.Second
	var reads, writes []outcome
	var wall time.Duration
	if !wl.served {
		reads, wall = b.closedLoop(window)
	} else {
		reads, writes, wall = b.openLoops()
	}
	after := b.counters()

	all := append(append([]outcome(nil), reads...), writes...)
	rec.Phases["window.read"] = countPhase(reads)
	if len(writes) > 0 {
		rec.Phases["window.write"] = countPhase(writes)
	}
	var late []float64
	for _, o := range all {
		late = append(late, ms(o.lateness))
	}
	rec.LatenessP99Ms = percentile(late, 99)
	rec.Valid = rec.LatenessP99Ms <= rec.MaxLatenessMs
	if !rec.Valid {
		return rec, nil, fmt.Errorf("invalid run: generator lateness p99 %.3f ms exceeds %.3f ms", rec.LatenessP99Ms, rec.MaxLatenessMs)
	}

	correct := true
	failed, good := 0, 0
	for _, o := range all {
		if !o.ok() {
			failed++
			if len(rec.Errors) < 5 {
				rec.Errors = append(rec.Errors, fmt.Sprint(errors.Join(o.err, o.wrong)))
			}
		}
		if o.wrong != nil {
			correct = false
		}
	}
	if p := rec.Phases["warmup"]; p.Failed+p.Wrong > 0 {
		correct = false
		rec.Errors = append(rec.Errors, "warm-up operations failed or answered wrongly")
	}
	// A traced run takes its latencies from the untraced half of the reads.
	var plain []outcome
	for _, o := range reads {
		if o.ok() {
			good++
		}
		if !o.traced {
			plain = append(plain, o)
		}
	}
	p50, tail, slo := b.latencyStats(plain)
	var wlat []float64
	for _, o := range writes {
		if o.err == nil {
			wlat = append(wlat, ms(o.latency))
		}
	}
	rec.Measured = map[string]metric{
		"latency_p50_ms":  {p50, "ms"},
		"latency_tail_ms": {tail, "ms"},
		"throughput_qps":  {float64(good) / wall.Seconds(), "1/s"},
		"write_p50_ms":    {median(wlat), "ms"},
		"write_tail_ms":   {percentile(wlat, wl.writeTailPct), "ms"},
		"error_rate":      {share(float64(failed), float64(len(all))), "fraction"},
	}

	var finalOuts []outcome
	if len(writes) > 0 {
		var err error
		finalOuts, err = b.finalCheck(writes)
		rec.Phases["final"] = countPhase(finalOuts)
		rec.FinalCheck = "ok"
		if err != nil {
			correct = false
			rec.FinalCheck = err.Error()
		}
	}

	res := &result{Correct: correct, Attempted: len(all), Failed: failed, Metrics: map[string]metric{}}
	if traced {
		lm, err := b.layerMetrics(reads, writes, before, after, rec)
		if err != nil {
			return rec, nil, fmt.Errorf("traced run: %w", err)
		}
		res.Metrics = lm
		if err := os.MkdirAll(filepath.Join(outDir, "traces"), 0o755); err != nil {
			return rec, nil, err
		}
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, seed))
		if err := b.tr.write(path); err != nil {
			return rec, nil, err
		}
	} else {
		done := 0
		for _, o := range all {
			if o.err == nil {
				done++
			}
		}
		res.Metrics = map[string]metric{
			"setup_s":        {median(setups), "s"},
			"slo_attainment": {slo, "fraction"},
			"cpu_ms_per_op":  {share(ms(after.cpu-before.cpu), float64(done)), "ms"},
			"peak_rss_mb":    {peakRSSMB(), "MB"},
		}
	}
	return rec, res, nil
}

// maxLatenessMs is how late the generator may send (p99) before a run is
// invalid: a quarter of the workload's latency limit. The generator shares
// the CPUs with the server, so a wake-up can wait out one 10 ms scheduler
// time slice without the schedule having fallen behind.
func maxLatenessMs(wl workload) float64 { return wl.limitMs / 4 }

// setup builds the stack, opens the client sessions, and warms every
// distinct read once so the statement/plan caches are filled and lazy
// set-up has run before the window opens.
func (b *bench) setup() error {
	st, err := newStack(b.in, b.tr, func(name string, d time.Duration) {
		b.phases[name] = append(b.phases[name], ms(d))
	})
	if err != nil {
		return err
	}
	b.st = st
	id := b.tr.newOp()
	sp := b.tr.start(id, nil, phaseWarmup)
	start := time.Now()
	defer func() {
		sp.finish()
		b.phases[phaseWarmup] = append(b.phases[phaseWarmup], ms(time.Since(start)))
	}()
	b.warmup = nil
	if !b.wl.served {
		// Every distinct query once under DL2SQL-OP, and one under DL2SQL:
		// DL2SQL's scan-time candidate statement is the same for all of
		// them, and its other statements name per-query tables the caches
		// never see again.
		for i, o := range b.in.grid {
			if o.strategy == stratDL2SQLOP || i == 0 {
				b.warmup = append(b.warmup, b.do(nil, o, false, true))
			}
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	tenants := []string{"tenant-a", "tenant-b", "tenant-c"}
	for range b.in.readers {
		c, err := newClient(ctx, st.url, tenants, false)
		if err != nil {
			return err
		}
		b.readers = append(b.readers, c)
	}
	if len(b.in.writer) > 0 {
		if b.writer, err = newClient(ctx, st.url, []string{"ingest"}, true); err != nil {
			return err
		}
	}
	strats := []string{stratDBUDF, stratDBPyTorch}
	if b.wl.writeRate > 0 {
		strats = strats[:1]
	}
	for _, sql := range b.in.colSQL {
		for _, s := range strats {
			b.warmup = append(b.warmup, b.do(b.readers[0], &op{kind: opCol, sql: sql, strategy: s}, false, true))
		}
	}
	for _, sql := range b.in.dash {
		b.warmup = append(b.warmup, b.do(b.readers[0], &op{kind: opSQL, sql: sql}, false, true))
	}
	return nil
}

func (b *bench) teardown() {
	for _, c := range b.readers {
		c.close()
	}
	if b.writer != nil {
		b.writer.close()
	}
	b.readers, b.writer = nil, nil
	if b.st != nil {
		b.st.close()
		b.st = nil
	}
}

// openLoops runs every connection's schedule concurrently, one goroutine
// per connection, and returns once all have finished.
func (b *bench) openLoops() (reads, writes []outcome, wall time.Duration) {
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	results := make([][]outcome, len(b.readers))
	for i, c := range b.readers {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			// Ingest reads are not checked during the window: their answer
			// depends on which inserts they saw (see finalCheck).
			results[i] = b.openLoop(c, b.in.readers[i], start, b.wl.writeRate == 0)
		}(i, c)
	}
	if b.writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = b.openLoop(b.writer, b.in.writer, start, false)
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	for _, r := range results {
		reads = append(reads, r...)
	}
	return reads, writes, wall
}

// counters is a snapshot of the process and program counters a window
// is measured between.
type counters struct {
	cpu        time.Duration
	alloc      uint64
	cache      sqldb.CacheStats
	queued     int64
	admitted   int64
	historyMax int64
	history    []obs.QueryRecord
	prof       *sqldb.Profile
}

func (b *bench) counters() counters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := counters{cpu: cpuTime(), alloc: m.TotalAlloc, cache: b.st.db.CacheStats(), prof: sqldb.NewProfile()}
	reg := b.st.db.Metrics
	c.queued = reg.Counter(obs.MetricServerQueued).Value()
	c.admitted = reg.Counter(obs.MetricServerAdmitted).Value()
	c.history = b.st.db.History.Snapshot()
	c.historyMax = lastID(c.history)
	c.prof.Merge(b.st.db.Profile)
	return c
}

// latencyStats returns the median and tail latency of the reads that
// answered, and the share of reads sent that answered correctly within the
// workload's limit. An open-loop window is split by due time into
// subWindows equal parts and each statistic is the median over the parts,
// so a few seconds of CPU steal on a shared host move one part, not the
// result.
func (b *bench) latencyStats(reads []outcome) (p50, tail, slo float64) {
	parts := [][]outcome{reads}
	if b.wl.served {
		parts = make([][]outcome, subWindows)
		part := time.Duration(b.seconds) * time.Second / subWindows
		for _, o := range reads {
			k := min(int(o.op.due/part), subWindows-1)
			parts[k] = append(parts[k], o)
		}
	}
	var p50s, tails, slos []float64
	for _, part := range parts {
		var lat []float64
		inLimit := 0
		for _, o := range part {
			if o.err == nil {
				lat = append(lat, ms(o.latency))
			}
			if o.ok() && ms(o.latency) <= b.wl.limitMs {
				inLimit++
			}
		}
		p50s = append(p50s, median(lat))
		tails = append(tails, percentile(lat, b.wl.tailPct))
		slos = append(slos, share(float64(inLimit), float64(len(part))))
	}
	return median(p50s), median(tails), median(slos)
}

// commit names the code under test: the VCS revision when the build
// recorded one, otherwise a digest of the module's sources.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "internal", "cmd"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f)
		io.Copy(h, fh)
		fh.Close()
	}
	return "sources:" + hex.EncodeToString(h.Sum(nil))[:16]
}
