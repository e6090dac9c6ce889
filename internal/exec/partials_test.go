package exec

import (
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

func TestRepairableClassifier(t *testing.T) {
	agg := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredLt(0, 10))
	mixedOps := &query.Query{Table: "R", Items: []query.SelectItem{
		{Agg: &expr.Agg{Op: expr.AggMax, Arg: &expr.Col{ID: 0}}},
		{Agg: &expr.Agg{Op: expr.AggSum, Arg: expr.SumCols([]data.AttrID{1, 2})}},
	}}
	limited := query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil)
	limited.Limit = 5
	cases := []struct {
		name string
		q    *query.Query
		want bool
	}{
		{"aggregation", agg, true},
		{"agg-expression", query.AggExpression("R", []data.AttrID{0, 1}, nil), true},
		{"mixed aggregate shapes (generic path)", mixedOps, true},
		{"projection", query.Projection("R", []data.AttrID{0}, nil), false},
		{"expression", query.ArithExpression("R", []data.AttrID{0, 1}, nil), false},
		{"aggregate with limit", limited, false},
		{"empty select", &query.Query{Table: "R"}, false},
		{"nil", nil, false},
	}
	for _, c := range cases {
		if got := Repairable(c.q); got != c.want {
			t.Errorf("%s: Repairable = %v, want %v", c.name, got, c.want)
		}
	}
}

// partialRelation builds a small append-ordered relation whose attribute 0
// is the row position, so range predicates on it prune segments exactly.
func partialRelation(t *testing.T, rows, segCap int) *storage.Relation {
	t.Helper()
	tb := data.GenerateTimeSeries(data.SyntheticSchema("R", 4), rows, 7)
	return storage.BuildColumnMajorSeg(tb, segCap)
}

// TestPartialsMatchFullScan: for every aggregate operator (and the mixed
// shape hybrid has no operators for, which ExecDelta hands to the generic
// pipeline), the combined partials equal the generic reference.
func TestPartialsMatchFullScan(t *testing.T) {
	rel := partialRelation(t, 1000, 128)
	queries := []*query.Query{
		query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, query.PredLt(0, 700)),
		query.Aggregation("R", expr.AggMax, []data.AttrID{3}, nil),
		query.Aggregation("R", expr.AggMin, []data.AttrID{1}, query.PredGt(2, 0)),
		query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil),
		query.Aggregation("R", expr.AggAvg, []data.AttrID{2}, query.PredLt(0, 999)),
		query.AggExpression("R", []data.AttrID{1, 2, 3}, query.PredGt(0, 100)),
		{Table: "R", Items: []query.SelectItem{ // mixed shapes: generic per-segment path
			{Agg: &expr.Agg{Op: expr.AggMax, Arg: &expr.Col{ID: 1}}},
			{Agg: &expr.Agg{Op: expr.AggSum, Arg: expr.SumCols([]data.AttrID{2, 3})}},
		}},
	}
	for _, q := range queries {
		var st StrategyStats
		p, _, err := ExecDelta(rel, q, nil, ExecOpts{Strategy: StrategyHybrid, Stats: &st})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Result(); !got.Equal(want) {
			t.Fatalf("%s: partials %v, full scan %v", q, got.Data, want.Data)
		}
		// Result() must not consume the partials: combining twice is legal
		// (the cache shares payloads between repairs).
		if got := p.Result(); !got.Equal(want) {
			t.Fatalf("%s: second Result() diverged — partials were mutated", q)
		}
		if p.Bytes() <= 0 {
			t.Fatalf("%s: Bytes() = %d", q, p.Bytes())
		}
	}
}

// TestExecDeltaTailAppend: after tail appends, a delta scan rescans only
// the mutated tail and the combined result matches a cold full scan.
func TestExecDeltaTailAppend(t *testing.T) {
	const segCap = 128
	rel := partialRelation(t, 4*segCap, segCap) // 4 sealed-capacity segments
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)

	prior, _, err := ExecDelta(rel, q, nil, ExecOpts{Strategy: StrategyColumn})
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.Segs) != 4 {
		t.Fatalf("seed partials cover %d segments, want 4", len(prior.Segs))
	}

	for i := 0; i < 3; i++ {
		if err := rel.Append([]data.Value{data.Value(1_000_000 + i), 5, 6, 7}); err != nil {
			t.Fatal(err)
		}
	}

	var st StrategyStats
	fresh, reused, err := ExecDelta(rel, q, prior.Versions(), ExecOpts{Strategy: StrategyColumn, Workers: 4, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	// The appends opened segment 4; segments 0-3 are untouched.
	if len(reused) != 4 {
		t.Fatalf("reused %v, want the 4 sealed segments", reused)
	}
	if len(fresh.Segs) != 1 {
		t.Fatalf("rescanned %d segments, want 1 (the new tail)", len(fresh.Segs))
	}
	if _, ok := fresh.Segs[4]; !ok {
		t.Fatalf("rescanned segments %v, want the appended tail (index 4)", fresh.Segs)
	}
	if st.SegmentsScanned != 1 {
		t.Fatalf("SegmentsScanned = %d, want 1", st.SegmentsScanned)
	}

	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	if got := Repaired(prior, fresh, reused).Result(); !got.Equal(want) {
		t.Fatalf("repaired result %v, cold full scan %v", got.Data, want.Data)
	}
}

// TestExecDeltaPrunedTail: when the appended rows fall outside the query's
// predicate range, the tail never becomes a candidate — the delta scan
// reuses everything and rescans nothing.
func TestExecDeltaPrunedTail(t *testing.T) {
	const segCap = 128
	rel := partialRelation(t, 4*segCap, segCap)
	q := query.Aggregation("R", expr.AggSum, []data.AttrID{1}, query.PredLt(0, data.Value(segCap)))

	prior, _, err := ExecDelta(rel, q, nil, ExecOpts{Strategy: StrategyHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if len(prior.Segs) != 1 {
		t.Fatalf("selective seed covers %d segments, want 1", len(prior.Segs))
	}
	if err := rel.Append([]data.Value{9_000_000, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	var st StrategyStats
	fresh, reused, err := ExecDelta(rel, q, prior.Versions(), ExecOpts{Strategy: StrategyHybrid, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Segs) != 0 || len(reused) != 1 {
		t.Fatalf("fresh=%d reused=%v, want 0 rescans and segment 0 reused", len(fresh.Segs), reused)
	}
	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	if got := Repaired(prior, fresh, reused).Result(); !got.Equal(want) {
		t.Fatalf("repaired result %v, cold full scan %v", got.Data, want.Data)
	}
}

// TestExecDeltaUnsupported: non-repairable shapes must refuse cleanly.
func TestExecDeltaUnsupported(t *testing.T) {
	rel := partialRelation(t, 100, 64)
	if _, _, err := ExecDelta(rel, query.Projection("R", []data.AttrID{0}, nil), nil, ExecOpts{Strategy: StrategyGeneric}); err != ErrUnsupported {
		t.Fatalf("projection: err = %v, want ErrUnsupported", err)
	}
	limited := query.Aggregation("R", expr.AggCount, []data.AttrID{0}, nil)
	limited.Limit = 1
	if _, _, err := ExecDelta(rel, limited, nil, ExecOpts{Strategy: StrategyGeneric}); err != ErrUnsupported {
		t.Fatalf("limited aggregate: err = %v, want ErrUnsupported", err)
	}
}
