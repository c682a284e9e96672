package dl2sql

import (
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// Infer runs one inference entirely in SQL: it encodes the input into
// relational form, executes the translated query pipeline layer by layer,
// and returns the argmax class index and its score. Step costs are
// appended to t.Steps.
func (t *Translator) Infer(sm *StoredModel, input *tensor.Tensor) (int, float64, error) {
	start := time.Now()
	key := t.chainKey(sm, input)
	if t.Cache != nil {
		if r, ok := t.Cache.results.Get(key); ok {
			t.record("Inference [cached]", 1, time.Since(start))
			return r.idx, r.score, nil
		}
	}
	var idx int64
	var score float64
	err := t.forward(sm, []*tensor.Tensor{input}, false, key, func(cur relForm) error {
		// Argmax over the final score table.
		res, err := t.exec("Classification", fmt.Sprintf(
			`SELECT TupleID, Value FROM %s ORDER BY Value DESC, TupleID LIMIT 1`, cur.table))
		if err != nil {
			return err
		}
		if res.NumRows() == 0 {
			return fmt.Errorf("dl2sql: empty final score table")
		}
		idx, _ = res.Cols[0].Get(0).AsInt()
		score, _ = res.Cols[1].Get(0).AsFloat()
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	// A query on a dying context must not publish into the shared cache:
	// later queries would otherwise observe state from a run that was
	// abandoned partway through.
	if t.Cache != nil && t.ctx().Err() == nil {
		t.Cache.results.Put(key, cachedResult{idx: int(idx), score: score})
	}
	return int(idx), score, nil
}

// InferTensor runs the SQL pipeline and materializes the final layer's
// output as a tensor (used by the equivalence tests).
func (t *Translator) InferTensor(sm *StoredModel, input *tensor.Tensor) (*tensor.Tensor, error) {
	var out *tensor.Tensor
	err := t.forward(sm, []*tensor.Tensor{input}, false, t.chainKey(sm, input), func(cur relForm) error {
		var err error
		out, err = t.tensorFromFlat(cur.table, cur.c, cur.h, cur.w)
		return err
	})
	return out, err
}

// InferBatch runs SQL inference for a batch of inputs, returning the
// argmax class index per sample (in input order). The paper performs
// nUDFs "in a batch manner": the whole batch is loaded into one keyed
// relation, so each layer executes as ONE SQL statement for the batch
// instead of one per sample. Batch inference is never cached.
func (t *Translator) InferBatch(sm *StoredModel, inputs []*tensor.Tensor) ([]int, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	out := make([]int, len(inputs))
	for i := range out {
		out[i] = -1
	}
	err := t.forward(sm, inputs, true, 0, func(cur relForm) error {
		// Per-sample argmax: join each sample's rows with its maximum score.
		res, err := t.exec("Classification", fmt.Sprintf(
			`SELECT A.SampleID AS SampleID, MIN(A.TupleID) AS TupleID FROM %s A, (SELECT SampleID, MAX(Value) AS mx FROM %s GROUP BY SampleID) S WHERE A.SampleID = S.SampleID AND A.Value = S.mx GROUP BY A.SampleID`,
			cur.table, cur.table))
		if err != nil {
			return err
		}
		for i := 0; i < res.NumRows(); i++ {
			sid, _ := res.Cols[0].Get(i).AsInt()
			cls, _ := res.Cols[1].Get(i).AsInt()
			if sid >= 0 && int(sid) < len(out) {
				out[sid] = int(cls)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, v := range out {
		if v < 0 {
			return nil, fmt.Errorf("dl2sql: batch inference lost sample %d", i)
		}
	}
	return out, nil
}

// chainKey is the pipeline-cache key of one per-sample inference: model
// stamp, input and pre-join strategy. Zero when no cache is attached.
func (t *Translator) chainKey(sm *StoredModel, input *tensor.Tensor) uint64 {
	if t.Cache == nil {
		return 0
	}
	return tensor.HashMix(t.modelStamp(sm), input.Hash(), uint64(t.PreJoin))
}

// forward is the one inference path: it encodes the inputs (keyed by
// SampleID for a batch), runs the compiled layer chain — per sample
// through the pipeline cache when one is attached, under the chain key
// key — and hands the final relation to read before the temp tables are
// dropped.
func (t *Translator) forward(sm *StoredModel, inputs []*tensor.Tensor, keyed bool, key uint64, read func(relForm) error) error {
	var temps []string
	defer func() {
		for _, name := range temps {
			t.DB.DropTable(name)
		}
	}()
	cur, err := t.encodeForFirstLayer(sm, inputs, keyed, &temps)
	if err != nil {
		return err
	}
	lastConv := 0
	if t.Cache != nil && !keyed {
		cur, err = t.runChainCached(sm.layers, cur, &temps, &lastConv, key)
	} else {
		cur, err = t.runChain(sm.layers, cur, &temps, &lastConv)
	}
	if err != nil {
		return err
	}
	return read(cur)
}

// encodeForFirstLayer implements the loading step: it bulk-loads the
// inputs into one table, each row led by its SampleID when keyed. A model
// that starts with a convolution gets Algorithm 1's patch form (under
// PreJoinInput pre-multiplied with the first kernel); any other model
// gets flat form.
func (t *Translator) encodeForFirstLayer(sm *StoredModel, inputs []*tensor.Tensor, keyed bool, temps *[]string) (relForm, error) {
	in := sm.Model.InputShape
	if len(sm.layers) > 0 && sm.layers[0].mappingTable == "" {
		if conv, ok := sm.layers[0].layer.(*nn.Conv2D); ok {
			name := t.nextTemp("fm0")
			*temps = append(*temps, name)
			cur := relForm{table: name, keyed: keyed, c: in[0], h: in[1], w: in[2]}
			return cur, t.encodePatches(name, inputs, keyed, conv)
		}
	}
	name := t.nextTemp("flat0")
	*temps = append(*temps, name)
	c, h, w := 1, 1, inputs[0].Len()
	if len(in) == 3 {
		c, h, w = in[0], in[1], in[2]
	}
	cur := relForm{table: name, keyed: keyed, flat: true, c: c, h: h, w: w}
	return cur, t.encodeFlat(name, inputs, keyed)
}

// encodePatches implements Algorithm 1: each input becomes patch-form
// FeatureMap rows {MatrixID, OrderID, Value} for the first convolution;
// overlapping receptive fields duplicate elements, exactly as the paper
// notes. Under PreJoinInput (pre-join strategy 3) every patch element is
// instead multiplied with each first-layer kernel during loading, storing
// {KernelID, MatrixID, Value=feature*weight}, so only Q1's grouped SUM
// remains at inference time.
func (t *Translator) encodePatches(name string, inputs []*tensor.Tensor, keyed bool, conv *nn.Conv2D) error {
	preJoined := t.PreJoin == PreJoinInput
	a, b := "MatrixID", "OrderID"
	if preJoined {
		a, b = "KernelID", "MatrixID"
	}
	add, err := t.newEncoding(name, keyed, a, b)
	if err != nil {
		return err
	}
	for sid, in := range inputs {
		cols, err := tensor.Im2Col(in, conv.K, conv.Stride, conv.Pad)
		if err != nil {
			return err
		}
		nm, no := cols.Dim(0), cols.Dim(1)
		if !preJoined {
			for m := 0; m < nm; m++ {
				for o := 0; o < no; o++ {
					if err := add(sid, m, o, cols.At(m, o)); err != nil {
						return err
					}
				}
			}
			continue
		}
		for kID := 0; kID < conv.OutC; kID++ {
			w := conv.KernelRow(kID)
			for m := 0; m < nm; m++ {
				for o := 0; o < no; o++ {
					if err := add(sid, kID, m, cols.At(m, o)*w[o]); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// encodeFlat stores each input in flat form {TupleID, KernelID, Value}
// with TupleID the channel-major flat index.
func (t *Translator) encodeFlat(name string, inputs []*tensor.Tensor, keyed bool) error {
	add, err := t.newEncoding(name, keyed, "TupleID", "KernelID")
	if err != nil {
		return err
	}
	for sid, in := range inputs {
		per := in.Len() / in.Shape()[0]
		for i, v := range in.Data() {
			if err := add(sid, i, i/per, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// newEncoding creates the input-encoding table {[SampleID,] a, b, Value}
// and returns the function that appends one element of sample sid.
func (t *Translator) newEncoding(name string, keyed bool, a, b string) (func(sid, x, y int, v float64) error, error) {
	t.DB.DropTable(name)
	schema := sqldb.Schema{
		{Name: a, Type: sqldb.TInt},
		{Name: b, Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	}
	if keyed {
		schema = append(sqldb.Schema{{Name: "SampleID", Type: sqldb.TInt}}, schema...)
	}
	tbl, err := t.DB.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	row := make([]sqldb.Datum, 0, len(schema)) // AppendRow copies; reuse it
	return func(sid, x, y int, v float64) error {
		row = row[:0]
		if keyed {
			row = append(row, sqldb.Int(int64(sid)))
		}
		return tbl.AppendRow(append(row, sqldb.Int(int64(x)), sqldb.Int(int64(y)), sqldb.Float(v)))
	}, nil
}

// runChain executes a compiled layer chain.
func (t *Translator) runChain(layers []storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	var err error
	for i := range layers {
		cur, err = t.runLayer(&layers[i], cur, temps, lastConv)
		if err != nil {
			return cur, err
		}
	}
	return cur, nil
}

func (t *Translator) runLayer(sl *storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	switch v := sl.layer.(type) {
	case *nn.Conv2D:
		*lastConv = sl.ordinal
		return t.runConv(sl, v, cur, temps)
	case *nn.Linear:
		return t.runLinear(sl, v, cur, temps)
	case *nn.BatchNorm, *nn.InstanceNorm:
		return t.runNorm(sl, cur, temps, *lastConv)
	case *nn.ReLU:
		return t.runReLU(cur, *lastConv)
	case *nn.Sigmoid:
		return t.runSigmoid(cur, temps)
	case *nn.MaxPool:
		return t.runPool(sl, cur, temps, "MAX")
	case *nn.AvgPool:
		return t.runPool(sl, cur, temps, "AVG")
	case *nn.GlobalAvgPool:
		return t.runGlobalAvg(sl, cur, temps)
	case *nn.Flatten:
		// Flat TupleIDs already enumerate features channel-major.
		return cur.flatAs(cur.table, cur.size(), 1, 1), nil
	case *nn.Softmax:
		return t.runSoftmax(cur, temps)
	case *nn.ResidualBlock:
		return t.runResidual(sl, cur, temps, lastConv)
	case *nn.DenseBlock:
		return t.runDense(sl, v, cur, temps, lastConv)
	case *nn.BasicAttention:
		return t.runAttention(sl, v, cur, temps)
	case *nn.Deconv2D:
		*lastConv = sl.ordinal
		return t.runDeconv(sl, v, cur, temps)
	}
	return cur, fmt.Errorf("%w: %s (%s)", ErrUnsupported, sl.layer.Name(), sl.layer.Kind())
}

// runConv emits Q2 (when the input is flat) and Q1, plus the bias join.
func (t *Translator) runConv(sl *storedLayer, conv *nn.Conv2D, cur relForm, temps *[]string) (relForm, error) {
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	ohw := outH * outW
	label := fmt.Sprintf("Conv%d", sl.ordinal)
	var out string
	var err error

	switch {
	case cur.flat && sl.mappingTable != "" && t.PreJoin != PreJoinNone:
		// Strategy 2/3: the mapping process (Q2) is fused into the
		// convolution statement as a subquery — the intermediate FeatureMap
		// table is never materialized.
		out, err = t.materialize(label, "conv", temps,
			`CREATE TEMP TABLE %s AS SELECT %sK.KernelID * %d + X.MatrixID AS TupleID, K.KernelID AS KernelID, SUM(X.Value * K.Value) AS Value FROM (SELECT %sB.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID) X INNER JOIN %s K ON X.OrderID = K.OrderID GROUP BY %sK.KernelID, X.MatrixID`,
			cur.keySel("X"), ohw, cur.keySel("A"), cur.table, sl.mappingTable, sl.kernelTable, cur.keyBy("X"))
	case cur.flat:
		// Q2: reshape flat output into the next patch layout.
		fm, err := t.materialize(fmt.Sprintf("Reshape%d", sl.ordinal-1), "fm", temps,
			`CREATE TEMP TABLE %s AS SELECT %sB.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID`,
			cur.keySel("A"), cur.table, sl.mappingTable)
		if err != nil {
			return cur, err
		}
		cur = relForm{table: fm, keyed: cur.keyed, c: cur.c, h: cur.h, w: cur.w}
		fallthrough
	default:
		if cur.flat {
			return cur, fmt.Errorf("dl2sql: conv %s received flat input without a mapping table", conv.Name())
		}
		if t.PreJoin == PreJoinInput && sl.mappingTable == "" {
			// Strategy 3 on the first layer: input was encoded
			// pre-multiplied — only the aggregation remains.
			out, err = t.materialize(label, "conv", temps,
				`CREATE TEMP TABLE %s AS SELECT %sKernelID * %d + MatrixID AS TupleID, KernelID AS KernelID, SUM(Value) AS Value FROM %s GROUP BY %sKernelID, MatrixID`,
				cur.keySel(""), ohw, cur.table, cur.keyBy(""))
		} else {
			// Q1: the convolution join.
			out, err = t.materialize(label, "conv", temps,
				`CREATE TEMP TABLE %s AS SELECT %sB.KernelID * %d + A.MatrixID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM %s A INNER JOIN %s B ON A.OrderID = B.OrderID GROUP BY %sB.KernelID, A.MatrixID`,
				cur.keySel("A"), ohw, cur.table, sl.kernelTable, cur.keyBy("A"))
		}
	}
	if err != nil {
		return cur, err
	}
	return t.applyBias(sl, cur.flatAs(out, outC, outH, outW), temps, label)
}

// applyBias joins per-channel biases onto a flat relation.
func (t *Translator) applyBias(sl *storedLayer, cur relForm, temps *[]string, label string) (relForm, error) {
	if sl.biasTable == "" {
		return cur, nil
	}
	out, err := t.materialize(label, "bias", temps,
		`CREATE TEMP TABLE %s AS SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM %s A, %s B WHERE A.KernelID = B.KernelID`,
		cur.keySel("A"), cur.table, sl.biasTable)
	if err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

// runLinear treats full connection as a kernel-size-1 convolution over the
// flattened input: a single join on the feature index.
func (t *Translator) runLinear(sl *storedLayer, lin *nn.Linear, cur relForm, temps *[]string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: linear %s needs flat input", lin.Name())
	}
	out, err := t.materialize("FC", "fc", temps,
		`CREATE TEMP TABLE %s AS SELECT %sB.KernelID AS TupleID, B.KernelID AS KernelID, SUM(A.Value * B.Value) AS Value FROM %s A, %s B WHERE A.TupleID = B.OrderID GROUP BY %sB.KernelID`,
		cur.keySel("A"), cur.table, sl.kernelTable, cur.keyBy("A"))
	if err != nil {
		return cur, err
	}
	return t.applyBias(sl, cur.flatAs(out, lin.Out, 1, 1), temps, "FC")
}

// runNorm emits the paper's Q4 batch-normalization: per-channel
// (Value − AVG)/(stddevSamp + ε). Channels live in separate logical
// feature tables in the paper (footnote 4); here the KernelID column plays
// that role and the statistics come from a grouped subquery (per sample
// when keyed). Learned γ/β and frozen running statistics, when present,
// come from the layer's parameter table.
func (t *Translator) runNorm(sl *storedLayer, cur relForm, temps *[]string, lastConv int) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: norm %s needs flat input", sl.layer.Name())
	}
	useBatchStats := true
	if bn, ok := sl.layer.(*nn.BatchNorm); ok {
		useBatchStats = bn.UseBatchStats
	}
	label := fmt.Sprintf("BN%d", lastConv)
	var out string
	var err error
	switch {
	case sl.kernelTable == "":
		// Identity batch-stat norm: the paper's literal Q4.
		out, err = t.materialize(label, "bn", temps,
			`CREATE TEMP TABLE %s AS SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, ((A.Value - S.mu) / (S.sd + %g)) AS Value FROM %s A, (SELECT %sKernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM %s GROUP BY %sKernelID) S WHERE %sA.KernelID = S.KernelID`,
			cur.keySel("A"), nn.BNEpsilon, cur.table, cur.keyBy(""), cur.table, cur.keyBy(""), cur.keyEq("A", "S"))
	case useBatchStats:
		// Learned γ/β over batch statistics.
		out, err = t.materialize(label, "bn", temps,
			`CREATE TEMP TABLE %s AS SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - S.mu) / (S.sd + %g)) + P.Beta AS Value FROM %s A, (SELECT %sKernelID, AVG(Value) AS mu, stddevSamp(Value) AS sd FROM %s GROUP BY %sKernelID) S, %s P WHERE %sA.KernelID = S.KernelID AND A.KernelID = P.KernelID`,
			cur.keySel("A"), nn.BNEpsilon, cur.table, cur.keyBy(""), cur.table, cur.keyBy(""), sl.kernelTable, cur.keyEq("A", "S"))
	default:
		// Frozen running statistics: γ(x−μ)/√(σ²+ε) + β.
		out, err = t.materialize(label, "bn", temps,
			`CREATE TEMP TABLE %s AS SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, (P.Gamma * (A.Value - P.Mean) / sqrt(P.Var + %g)) + P.Beta AS Value FROM %s A, %s P WHERE A.KernelID = P.KernelID`,
			cur.keySel("A"), nn.BNEpsilon, cur.table, sl.kernelTable)
	}
	if err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

// runReLU applies the paper's UPDATE-based rectification in place.
func (t *Translator) runReLU(cur relForm, lastConv int) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: relu needs flat input")
	}
	sql := fmt.Sprintf(`UPDATE %s SET Value = 0 WHERE Value < 0`, cur.table)
	if _, err := t.exec(fmt.Sprintf("ReLU%d", lastConv), sql); err != nil {
		return cur, err
	}
	return cur, nil
}

func (t *Translator) runSigmoid(cur relForm, temps *[]string) (relForm, error) {
	out, err := t.materialize("Sigmoid", "sig", temps,
		`CREATE TEMP TABLE %s AS SELECT %sTupleID, KernelID, 1 / (1 + exp(0 - Value)) AS Value FROM %s`,
		cur.keyBy(""), cur.table)
	if err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

// runPool emits Q3: the pooling mapping join plus a grouped MAX/AVG.
func (t *Translator) runPool(sl *storedLayer, cur relForm, temps *[]string, agg string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: pooling needs flat input")
	}
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	out, err := t.materialize("Pool", "pool", temps,
		`CREATE TEMP TABLE %s AS SELECT %sB.KernelID * %d + B.MatrixID AS TupleID, B.KernelID AS KernelID, %s(A.Value) AS Value FROM %s A, %s B WHERE A.TupleID = B.TupleID GROUP BY %sB.KernelID, B.MatrixID`,
		cur.keySel("A"), outH*outW, agg, cur.table, sl.mappingTable, cur.keyBy("A"))
	if err != nil {
		return cur, err
	}
	return cur.flatAs(out, outC, outH, outW), nil
}

func (t *Translator) runGlobalAvg(sl *storedLayer, cur relForm, temps *[]string) (relForm, error) {
	out, err := t.materialize("Pool", "gap", temps,
		`CREATE TEMP TABLE %s AS SELECT %sKernelID AS TupleID, KernelID AS KernelID, AVG(Value) AS Value FROM %s GROUP BY %sKernelID`,
		cur.keyBy(""), cur.table, cur.keyBy(""))
	if err != nil {
		return cur, err
	}
	return cur.flatAs(out, sl.outShape[0], 1, 1), nil
}

// runSoftmax emits the classification head: a numerically-stabilized
// exp/SUM over the logit table. Unkeyed, the max and the sum are scalar
// subqueries of one statement; keyed, they are per-sample grouped
// subqueries, so the shift and the normalization take one statement each.
func (t *Translator) runSoftmax(cur relForm, temps *[]string) (relForm, error) {
	if !cur.keyed {
		out, err := t.materialize("Classification", "sm", temps,
			`CREATE TEMP TABLE %s AS SELECT TupleID, KernelID, exp(Value - (SELECT MAX(Value) FROM %[2]s)) / (SELECT SUM(exp(Value - (SELECT MAX(Value) FROM %[2]s))) FROM %[2]s) AS Value FROM %[2]s`,
			cur.table)
		if err != nil {
			return cur, err
		}
		cur.table = out
		return cur, nil
	}
	shifted, err := t.materialize("Classification", "sm", temps,
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, exp(A.Value - S.mx) AS Value FROM %[2]s A, (SELECT SampleID, MAX(Value) AS mx FROM %[2]s GROUP BY SampleID) S WHERE A.SampleID = S.SampleID`,
		cur.table)
	if err != nil {
		return cur, err
	}
	out, err := t.materialize("Classification", "sm", temps,
		`CREATE TEMP TABLE %s AS SELECT A.SampleID AS SampleID, A.TupleID AS TupleID, A.KernelID AS KernelID, A.Value / S.sm AS Value FROM %[2]s A, (SELECT SampleID, SUM(Value) AS sm FROM %[2]s GROUP BY SampleID) S WHERE A.SampleID = S.SampleID`,
		shifted)
	if err != nil {
		return cur, err
	}
	cur.table = out
	return cur, nil
}

// runResidual executes the paper's Q5: both paths from the same input,
// elementwise sum, then the UPDATE-based ReLU.
func (t *Translator) runResidual(sl *storedLayer, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	mainOut, err := t.runChain(sl.main, cur, temps, lastConv)
	if err != nil {
		return cur, err
	}
	shortOut := cur
	if len(sl.shortcut) > 0 {
		shortOut, err = t.runChain(sl.shortcut, cur, temps, lastConv)
		if err != nil {
			return cur, err
		}
	}
	out, err := t.materialize(fmt.Sprintf("Residual%d", *lastConv), "res", temps,
		`CREATE TEMP TABLE %s AS SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, A.Value + B.Value AS Value FROM %s A, %s B WHERE %sA.TupleID = B.TupleID`,
		cur.keySel("A"), mainOut.table, shortOut.table, cur.keyEq("A", "B"))
	if err != nil {
		return cur, err
	}
	return t.runReLU(mainOut.flatAs(out, mainOut.c, mainOut.h, mainOut.w), *lastConv)
}

// runDense executes a dense block: each stage convolves the accumulated
// concatenation, and the stage output is appended with shifted channel and
// tuple IDs.
func (t *Translator) runDense(sl *storedLayer, blk *nn.DenseBlock, cur relForm, temps *[]string, lastConv *int) (relForm, error) {
	acc := cur
	for i := range sl.main {
		stage := &sl.main[i]
		conv := stage.layer.(*nn.Conv2D)
		*lastConv = stage.ordinal
		stageOut, err := t.runConv(stage, conv, acc, temps)
		if err != nil {
			return cur, err
		}
		// Concatenate along channels.
		hw := acc.h * acc.w
		concat, err := t.materialize(fmt.Sprintf("Dense%d", *lastConv), "cat", temps,
			`CREATE TEMP TABLE %[1]s AS SELECT %[2]sTupleID, KernelID, Value FROM %[3]s;
			 INSERT INTO %[1]s (SELECT %[2]sTupleID + %[4]d, KernelID + %[5]d, Value FROM %[6]s);`,
			acc.keyBy(""), acc.table, acc.c*hw, acc.c, stageOut.table)
		if err != nil {
			return cur, err
		}
		acc = acc.flatAs(concat, acc.c+blk.Growth, acc.h, acc.w)
	}
	return acc, nil
}

// runAttention executes basic attention as two FC joins, a softmax, and an
// elementwise product — the derivation from full connection the paper
// describes.
func (t *Translator) runAttention(sl *storedLayer, att *nn.BasicAttention, cur relForm, temps *[]string) (relForm, error) {
	scoreLayer := &storedLayer{kernelTable: sl.kernelTable, outShape: []int{att.Dim, 1, 1}}
	scores, err := t.runLinear(scoreLayer, &nn.Linear{LayerName: att.Name() + "_score", In: att.Dim, Out: att.Dim}, cur, temps)
	if err != nil {
		return cur, err
	}
	scores, err = t.runSoftmax(scores, temps)
	if err != nil {
		return cur, err
	}
	valueLayer := &storedLayer{kernelTable: sl.biasTable, outShape: []int{att.Dim, 1, 1}}
	values, err := t.runLinear(valueLayer, &nn.Linear{LayerName: att.Name() + "_value", In: att.Dim, Out: att.Dim}, cur, temps)
	if err != nil {
		return cur, err
	}
	out, err := t.materialize("Attention", "attn", temps,
		`CREATE TEMP TABLE %s AS SELECT %sA.TupleID AS TupleID, A.KernelID AS KernelID, A.Value * B.Value AS Value FROM %s A, %s B WHERE %sA.TupleID = B.TupleID`,
		cur.keySel("A"), scores.table, values.table, cur.keyEq("A", "B"))
	if err != nil {
		return cur, err
	}
	return cur.flatAs(out, att.Dim, 1, 1), nil
}

// runDeconv executes transposed convolution via the precomputed
// contribution table: one join + grouped SUM.
func (t *Translator) runDeconv(sl *storedLayer, d *nn.Deconv2D, cur relForm, temps *[]string) (relForm, error) {
	if !cur.flat {
		return cur, fmt.Errorf("dl2sql: deconv %s needs flat input", d.Name())
	}
	outC, outH, outW := sl.outShape[0], sl.outShape[1], sl.outShape[2]
	label := fmt.Sprintf("Deconv%d", sl.ordinal)
	out, err := t.materialize(label, "deconv", temps,
		`CREATE TEMP TABLE %s AS SELECT %sC.KernelID * %d + C.OutID AS TupleID, C.KernelID AS KernelID, SUM(A.Value * C.Weight) AS Value FROM %s A, %s C WHERE A.TupleID = C.TupleID GROUP BY %sC.KernelID, C.OutID`,
		cur.keySel("A"), outH*outW, cur.table, sl.kernelTable, cur.keyBy("A"))
	if err != nil {
		return cur, err
	}
	return t.applyBias(sl, cur.flatAs(out, outC, outH, outW), temps, label)
}
