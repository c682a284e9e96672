package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/colquery"
	"repro/internal/iotdata"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// The dataset is sqlserved's default: iotdata scale 2, keyframe side 8,
// relational tables from seed 42. The relational tables stay fixed so that
// every seed asks the engine for the same amount of work (the fabric table
// has only 20 rows, so a re-drawn table would swing per-query cardinalities
// by tens of percent); the run's seed re-draws every keyframe's pixels and
// drives the query order, selectivities, tenants, arrival times and the
// inserted rows.
const (
	dataScale    = 2
	keyframeSide = 8
	dataSeed     = 42
	patternCount = 6
	baseVideo    = 100 * dataScale
	baseFabric   = 10 * dataScale

	// setupReps is how many times a run builds its stack; setup_s is the
	// median.
	setupReps = 5
	// subWindows is how many equal parts an open-loop window is split into
	// for the latency statistics.
	subWindows = 5
	// maxWrites bounds ingest-mix growth to half the base video table: nine
	// of every ten writes insert a video row.
	maxWrites = baseVideo / 2 * 10 / 9
)

// workload is one traffic mix. Rates, limits and percentiles are fixed here
// and restated in BENCHMARK.json's "why" lines.
type workload struct {
	name string
	// served runs the sqlserved stack on a loopback listener; otherwise the
	// operations call the embedded strategies directly.
	served bool
	// readRate and writeRate are open-loop arrivals per second (0 = none).
	// A workload without a read rate is one closed-loop client.
	readRate  float64
	writeRate float64
	// limitMs is the latency limit of slo_attainment; tailPct is the
	// percentile latency_tail_ms reports: the highest with at least ten
	// samples beyond it in one measured part (the whole window when closed
	// loop, a fifth of it when open loop; see latencyStats).
	limitMs      float64
	tailPct      float64
	writeTailPct float64
}

var workloads = map[string]workload{
	"sql-infer":  {name: "sql-infer", limitMs: 1000, tailPct: 90},
	"served-udf": {name: "served-udf", served: true, readRate: 40, limitMs: 100, tailPct: 93},
	"ingest-mix": {name: "ingest-mix", served: true, readRate: 25, writeRate: 5, limitMs: 150, tailPct: 90, writeTailPct: 90},
}

type opKind int

const (
	opCol    opKind = iota // collaborative query under a named strategy
	opSQL                  // plain SQL dashboard query
	opInsert               // prepared INSERT (ingest-mix writer)
)

// op is one generated operation. The program under test sees only sql,
// strategy and args.
type op struct {
	kind     opKind
	sql      string
	strategy string
	tenant   int
	due      time.Duration // open loop: offset of the send time from the window start
	table    string        // opInsert
	args     []sqldb.Datum // opInsert
	// dateLo/dateHi is the video-side date window of a collaborative query
	// (the keyframes it makes candidates of).
	dateLo, dateHi string
	// id is the inserted videoID or transID (opInsert).
	id int64
}

const (
	stratDL2SQL    = "DL2SQL"
	stratDL2SQLOP  = "DL2SQL-OP"
	stratDBUDF     = "DB-UDF"
	stratDBPyTorch = "DB-PyTorch"
	numTenants     = 3
	numWorkers     = 2 // client connections of a served workload; at most nproc
)

// inputs is everything a run generates from its seed.
type inputs struct {
	wl        workload
	rng       *rand.Rand
	keyframes [][]byte // one per base video row
	// colSQL are the distinct collaborative queries, one per query type
	// and Type 3 selectivity; typeSQL picks one per type for replays and
	// the final ingest check.
	colSQL  []string
	typeSQL []string
	dash    []string // distinct plain-SQL dashboard queries
	grid    []*op    // sql-infer: one closed-loop round
	readers [][]*op  // open loop, one schedule per client connection
	writer  []*op    // ingest-mix
	dateLo  string
	dateHi  string
}

func newInputs(wl workload, seed int64, seconds int) (*inputs, error) {
	in := &inputs{wl: wl, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < baseVideo; i++ {
		in.keyframes = append(in.keyframes, in.keyframe())
	}
	// sql-infer narrows the date window so a DL2SQL query costs about
	// 0.3 s instead of 1.2 s, giving ~100 operations per 20 s run; the
	// served workloads keep the templates' one-month window.
	in.dateLo, in.dateHi = "2021-01-01", "2021-01-31"
	if !wl.served {
		in.dateLo, in.dateHi = "2021-01-05", "2021-01-16"
	}
	for _, t := range []colquery.QueryType{colquery.Type1, colquery.Type2, colquery.Type3, colquery.Type4} {
		sels := []float64{0.1}
		if t == colquery.Type3 {
			// Only Type 3 carries the sensor predicates the selectivity
			// sets; the seed jitters each level by up to ±10%.
			sels = []float64{0.02, 0.1, 0.4}
		}
		for i, s := range sels {
			s *= 0.9 + 0.2*in.rng.Float64()
			sql, err := colquery.Generate(t, colquery.TemplateParams{Selectivity: s, DateLo: in.dateLo, DateHi: in.dateHi})
			if err != nil {
				return nil, err
			}
			in.colSQL = append(in.colSQL, sql)
			if i == len(sels)/2 {
				in.typeSQL = append(in.typeSQL, sql)
			}
		}
	}
	switch {
	case !wl.served:
		for _, sql := range in.colSQL {
			for _, s := range []string{stratDL2SQL, stratDL2SQLOP} {
				in.grid = append(in.grid, &op{kind: opCol, sql: sql, strategy: s, dateLo: in.dateLo, dateHi: in.dateHi})
			}
		}
	default:
		in.dash = dashboards()
		window := time.Duration(seconds) * time.Second
		readers := numWorkers
		if wl.writeRate > 0 {
			readers = 1 // ingest-mix: one reader connection beside the writer's
		}
		for w := 0; w < readers; w++ {
			dues := in.arrivals(wl.readRate/float64(readers), window, -1)
			sched := in.deal(len(dues))
			for i, o := range sched {
				o.due = dues[i]
			}
			in.readers = append(in.readers, sched)
		}
		if wl.writeRate > 0 {
			in.writer = in.writes(in.arrivals(wl.writeRate, window, maxWrites))
		}
	}
	return in, nil
}

// keyframe draws one 3×side×side keyframe blob.
func (in *inputs) keyframe() []byte {
	t := tensor.New(3, keyframeSide, keyframeSide)
	for i := range t.Data() {
		t.Data()[i] = in.rng.Float64()
	}
	return iotdata.KeyframeBytes(t)
}

// round returns one closed-loop round: every grid operation once, in a
// seeded order, so each round does the same work.
func (in *inputs) round() []*op {
	out := make([]*op, len(in.grid))
	for i, j := range in.rng.Perm(len(in.grid)) {
		out[i] = in.grid[j]
	}
	return out
}

// arrivals draws send times at a fixed rate per second over window (at
// most max of them when max >= 0): one per slot of 1/rate seconds, at a
// seeded point in the middle half of its slot. Fixed-rate arrivals keep
// the offered load, and the bursts it contains, the same across seeds.
func (in *inputs) arrivals(rate float64, window time.Duration, max int) []time.Duration {
	n := int(math.Round(rate * window.Seconds()))
	if max >= 0 && n > max {
		n = max
	}
	slot := float64(time.Second) / rate
	out := make([]time.Duration, n)
	for k := range out {
		out[k] = time.Duration((float64(k) + 0.25 + 0.5*in.rng.Float64()) * slot)
	}
	return out
}

// readDeck is one of each read a served workload draws from. served-udf
// sends every collaborative query three times under DB-UDF and three times
// under DB-PyTorch per dashboard query; ingest-mix reads are DB-UDF (four
// times per query) and dashboards. The shares put the median read inside a
// cluster of similar latencies rather than on the edge between two. Reads
// are dealt from shuffled decks, so every run sends the same mix.
func (in *inputs) readDeck() []*op {
	var deck []*op
	strats, copies := []string{stratDBUDF, stratDBPyTorch}, 3
	if in.wl.writeRate > 0 {
		strats, copies = strats[:1], 4
	}
	for _, s := range strats {
		for _, sql := range in.colSQL {
			for k := 0; k < copies; k++ {
				deck = append(deck, &op{kind: opCol, sql: sql, strategy: s, dateLo: in.dateLo, dateHi: in.dateHi})
			}
		}
	}
	for _, sql := range in.dash {
		deck = append(deck, &op{kind: opSQL, sql: sql})
	}
	return deck
}

// deal returns n reads, dealt from freshly shuffled decks.
func (in *inputs) deal(n int) []*op {
	var out, deck []*op
	for len(out) < n {
		if len(deck) == 0 {
			deck = in.readDeck()
			in.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		o := deck[0]
		deck = deck[1:]
		o.tenant = in.rng.Intn(numTenants)
		out = append(out, o)
	}
	return out
}

// writes turns arrival offsets into INSERTs: every tenth starts a new
// transaction (a fabric row), the others append a keyframe of it to video,
// the dataset's ten clips per transaction.
func (in *inputs) writes(dues []time.Duration) []*op {
	var out []*op
	video, trans := int64(baseVideo), int64(baseFabric)
	for k, due := range dues {
		day := in.rng.Intn(30)
		o := &op{kind: opInsert, due: due}
		if k%10 == 0 {
			o.table, o.id = "fabric", trans
			o.args = []sqldb.Datum{
				sqldb.Int(trans), sqldb.Int(int64(in.rng.Intn(patternCount))),
				sqldb.Float(10 + in.rng.Float64()*990), sqldb.Float(in.rng.Float64() * 100),
				sqldb.Float(in.rng.Float64() * 60), sqldb.Str(janDate(day)),
			}
			trans++
		} else {
			o.table, o.id = "video", video
			o.args = []sqldb.Datum{sqldb.Int(video), sqldb.Int(trans - 1), sqldb.Str(janDate(day)), sqldb.Blob(in.keyframe())}
			video++
		}
		out = append(out, o)
	}
	return out
}

func janDate(day int) string { return fmt.Sprintf("2021-01-%02d", day+1) }

var insertSQL = map[string]string{
	"video":  "INSERT INTO video VALUES (?, ?, ?, ?)",
	"fabric": "INSERT INTO fabric VALUES (?, ?, ?, ?, ?, ?)",
}

// dashboards are the plain-SQL reads: a few templates, each with a few
// literals, so the statement and plan caches see repeats.
func dashboards() []string {
	var out []string
	for _, d := range []string{"2021-01-10", "2021-01-20", "2021-02-01", "2021-02-15"} {
		out = append(out,
			fmt.Sprintf("SELECT patternID, count(*) AS n, avg(humidity) AS hum FROM fabric F WHERE F.printdate > '%s' GROUP BY patternID", d),
			fmt.Sprintf("SELECT count(*) AS clips FROM video V WHERE V.date > '%s'", d),
			fmt.Sprintf("SELECT F.patternID AS patternID, count(*) AS clips FROM fabric F, video V WHERE F.transID = V.transID and V.date > '%s' GROUP BY F.patternID", d),
		)
	}
	out = append(out, "SELECT C.region AS region, sum(O.amount) AS total FROM order_tbl O, client C WHERE O.clientID = C.clientID GROUP BY C.region")
	return out
}
