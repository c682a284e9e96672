package dl2sql

// Pipeline-level caching for SQL inference.
//
// Every strategies.Execute stores the referenced models under a fresh,
// uniquely-prefixed set of tables, so table names are useless as cache
// keys. The cache therefore keys on *semantic* content:
//
//	modelStamp = hash(encoded weights) ⊕ current version of every stored
//	             table (catches direct mutation of kernel/bias tables)
//	result key = modelStamp ⊕ input tensor hash ⊕ pre-join strategy
//	step key   = running hash chained per executed layer
//
// Two LRUs hang off a PipelineCache:
//
//   - results: whole-Infer memoization — (class index, score) per
//     (model, input). A hit skips the entire SQL pipeline.
//   - steps: materialized intermediate relations (the FeatureMap /
//     Layer_Output tables) per layer. A hit rehydrates the stored columns
//     into a fresh temp table instead of re-running the layer's SQL, so
//     identical conv/bn/relu prefixes are reused even when the suffix of
//     the pipeline differs (e.g. two nUDFs backed by the same task model
//     within one query).
//
// Stored columns are deep-copied on both store and load: the paper's
// UPDATE-based ReLU mutates its input table in place, so shared backing
// arrays would corrupt the cache.
import (
	"time"

	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/tensor"

	icache "repro/internal/cache"
)

// cachedRel is a materialized intermediate relation: the column data plus
// the relForm metadata needed to resume the pipeline from it.
type cachedRel struct {
	schema  sqldb.Schema
	cols    []*sqldb.Column // deep copies; cloned again on load
	flat    bool
	c, h, w int
}

// cachedResult is a memoized whole-inference outcome.
type cachedResult struct {
	idx   int
	score float64
}

// PipelineCache memoizes SQL inference across Infer calls and across
// translators (cache keys are semantic, so a model re-stored under a new
// prefix still hits). Attach one to Translator.Cache to enable; a nil
// PipelineCache disables caching at zero cost.
type PipelineCache struct {
	results *icache.LRU[uint64, cachedResult]
	steps   *icache.LRU[uint64, *cachedRel]
}

// NewPipelineCache builds a cache holding up to resultCap memoized
// inferences and stepCap materialized intermediates.
func NewPipelineCache(resultCap, stepCap int) *PipelineCache {
	return &PipelineCache{
		results: icache.New[uint64, cachedResult](resultCap),
		steps:   icache.New[uint64, *cachedRel](stepCap),
	}
}

// Instrument mirrors hit/miss/eviction counts into the registry under
// "dl2sql.cache.results.*" and "dl2sql.cache.steps.*".
func (pc *PipelineCache) Instrument(reg *obs.Registry) {
	if pc == nil {
		return
	}
	pc.results.Instrument(reg, "dl2sql.cache.results")
	pc.steps.Instrument(reg, "dl2sql.cache.steps")
}

// Stats reports both LRUs' counters.
func (pc *PipelineCache) Stats() (results, steps icache.Stats) {
	if pc == nil {
		return
	}
	return pc.results.Stats(), pc.steps.Stats()
}

// Purge empties both LRUs.
func (pc *PipelineCache) Purge() {
	if pc == nil {
		return
	}
	pc.results.Purge()
	pc.steps.Purge()
}

// modelStamp fingerprints the stored model's current state: the encoded
// weights plus the live version counter of every backing table, so a
// direct UPDATE/INSERT against a kernel table invalidates all keys
// derived from the stamp.
func (t *Translator) modelStamp(sm *StoredModel) uint64 {
	h := sm.weightsHash
	for _, name := range sm.tableNames {
		if tb := t.DB.GetTable(name); tb != nil {
			h = tensor.HashMix(h, uint64(tb.Version()))
		} else {
			h = tensor.HashMix(h, ^uint64(0))
		}
	}
	return h
}

// snapshotRel deep-copies the relation's backing table for caching.
// Returns nil when the table is missing (nothing cached).
func (t *Translator) snapshotRel(cur relForm) *cachedRel {
	tb := t.DB.GetTable(cur.table)
	if tb == nil {
		return nil
	}
	shallow := tb.SnapshotCols()
	cols := make([]*sqldb.Column, len(shallow))
	for i, c := range shallow {
		cols[i] = c.Clone()
	}
	return &cachedRel{
		schema: append(sqldb.Schema(nil), tb.Schema...),
		cols:   cols,
		flat:   cur.flat,
		c:      cur.c, h: cur.h, w: cur.w,
	}
}

// restoreRel rehydrates a cached relation into a fresh temp table and
// returns the relForm resuming the pipeline from it.
func (t *Translator) restoreRel(rel *cachedRel, temps *[]string) (relForm, error) {
	name := t.nextTemp("chit")
	t.DB.DropTable(name)
	tb, err := t.DB.CreateTable(name, append(sqldb.Schema(nil), rel.schema...))
	if err != nil {
		return relForm{}, err
	}
	*temps = append(*temps, name)
	cols := make([]*sqldb.Column, len(rel.cols))
	for i, c := range rel.cols {
		cols[i] = c.Clone()
	}
	if err := tb.ReplaceData(cols); err != nil {
		return relForm{}, err
	}
	return relForm{table: name, flat: rel.flat, c: rel.c, h: rel.h, w: rel.w}, nil
}

// maxOrdinal finds the highest conv ordinal reachable from a stored layer
// (needed to keep BN/ReLU step labels correct when a conv layer is served
// from the cache and runLayer never sets lastConv).
func maxOrdinal(sl *storedLayer) int {
	best := sl.ordinal
	for i := range sl.main {
		if o := maxOrdinal(&sl.main[i]); o > best {
			best = o
		}
	}
	for i := range sl.shortcut {
		if o := maxOrdinal(&sl.shortcut[i]); o > best {
			best = o
		}
	}
	return best
}

// runChainCached executes the top-level layer chain with per-step
// memoization. key must already incorporate the model stamp, the input
// hash, and the pre-join strategy; it is chained per layer so a step's
// key pins its entire prefix.
func (t *Translator) runChainCached(layers []storedLayer, cur relForm, temps *[]string, lastConv *int, key uint64) (relForm, error) {
	for i := range layers {
		sl := &layers[i]
		key = tensor.HashString(tensor.HashMix(key, uint64(i)), sl.layer.Name())
		if rel, ok := t.Cache.steps.Get(key); ok {
			start := time.Now()
			restored, err := t.restoreRel(rel, temps)
			if err != nil {
				return cur, err
			}
			if o := maxOrdinal(sl); o > *lastConv {
				*lastConv = o
			}
			rows := 0
			if tb := t.DB.GetTable(restored.table); tb != nil {
				rows = tb.NumRows()
			}
			t.record(sl.layer.Name()+" [cached]", rows, time.Since(start))
			cur = restored
			continue
		}
		var err error
		cur, err = t.runLayer(sl, cur, temps, lastConv)
		if err != nil {
			return cur, err
		}
		// Skip the Put once the query's context is done — a cancelled run
		// must not leave per-layer snapshots behind for other queries.
		if snap := t.snapshotRel(cur); snap != nil && t.ctx().Err() == nil {
			t.Cache.steps.Put(key, snap)
		}
	}
	return cur, nil
}
