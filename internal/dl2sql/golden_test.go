package dl2sql

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
)

var updateGolden = flag.Bool("update", false, "rewrite the per-sample SQL golden files in testdata/")

// goldenPipeline renders one per-sample Infer as "-- <step label>" followed
// by the statement that step executed, in execution order.
func goldenPipeline(t *testing.T, m *nn.Model, strat PreJoinStrategy, seed int64) string {
	t.Helper()
	db := sqldb.New()
	db.Profile = sqldb.NewProfile()
	tr := NewTranslator(db, "m")
	tr.PreJoin = strat
	tr.Trace = true
	sm, err := tr.StoreModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Infer(sm, randTensor(m.InputShape, seed)); err != nil {
		t.Fatal(err)
	}
	if len(tr.Steps) != len(tr.TraceSQL) {
		t.Fatalf("%d steps vs %d traced statements", len(tr.Steps), len(tr.TraceSQL))
	}
	var b strings.Builder
	for i, s := range tr.Steps {
		fmt.Fprintf(&b, "-- %s\n%s\n\n", s.Label, tr.TraceSQL[i])
	}
	return b.String()
}

// TestPerSampleSQLGolden pins the exact per-sample statements and step
// labels, i.e. what every template renders for the unkeyed relational
// form. Per-sample timings and statement counts are only comparable across
// changes while these hold. Regenerate with
// `go test ./internal/dl2sql -run TestPerSampleSQLGolden -update` only when
// a change to the per-sample SQL is intended.
func TestPerSampleSQLGolden(t *testing.T) {
	student := modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 500)
	dense := nn.NewModel("bd", []int{2, 4, 4}, nil)
	dense.Add(
		nn.NewDenseBlock("db", 2, 2, 2, 204),
		nn.NewDeconv2D("dc", 6, 2, 2, 2, 0, 205),
		&nn.GlobalAvgPool{LayerName: "gap"},
		nn.NewLinear("fc", 2, 3, 206),
		&nn.Softmax{LayerName: "sm"},
	)
	attention := nn.NewModel("ba", []int{1, 2, 2}, nil)
	attention.Add(
		&nn.Flatten{LayerName: "fl"},
		nn.NewBasicAttention("att", 4, 207),
		&nn.Softmax{LayerName: "sm"},
	)
	resnet, err := modelrepo.NewResNet(5, modelrepo.TaskTextileType, 8, 203)
	if err != nil {
		t.Fatal(err)
	}
	// Every norm variant plus sigmoid and both pooling aggregates.
	norms := nn.NewModel("norms", []int{1, 6, 6}, nil)
	learned := nn.NewBatchNorm("bn1", 2)
	learned.Gamma[0], learned.Beta[1] = 2, -0.1
	frozen := nn.NewBatchNorm("bn2", 2)
	frozen.UseBatchStats = false
	frozen.Mean[0], frozen.Var[1] = 0.2, 0.8
	norms.Add(
		nn.NewConv2D("c1", 1, 2, 2, 1, 0, 208),
		learned,
		&nn.MaxPool{LayerName: "mp", K: 2, Stride: 1},
		nn.NewConv2D("c2", 2, 2, 1, 1, 0, 209),
		frozen,
		&nn.Sigmoid{LayerName: "s"},
		&nn.AvgPool{LayerName: "ap", K: 2, Stride: 2},
		nn.NewInstanceNorm("in", 2),
	)
	cases := []struct {
		file  string
		model *nn.Model
		strat PreJoinStrategy
	}{
		{"student_none.sql", student, PreJoinNone},
		{"student_prejoin_mapping.sql", student, PreJoinMapping},
		{"student_prejoin_input.sql", student, PreJoinInput},
		{"dense_deconv.sql", dense, PreJoinNone},
		{"attention.sql", attention, PreJoinNone},
		{"resnet.sql", resnet, PreJoinNone},
		{"norms.sql", norms, PreJoinNone},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			got := goldenPipeline(t, c.model, c.strat, 501)
			path := filepath.Join("testdata", c.file)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("per-sample SQL drifted from %s:\n--- got ---\n%s", path, got)
			}
		})
	}
}
