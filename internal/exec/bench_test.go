package exec

import (
	"fmt"
	"runtime"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

const benchRows = 100_000

func benchFixture(b *testing.B, attrs int) (*data.Table, *storage.Relation, *storage.Relation) {
	b.Helper()
	tb := data.Generate(data.SyntheticSchema("R", attrs), benchRows, 42)
	return tb, storage.BuildColumnMajor(tb), storage.BuildRowMajor(tb, false)
}

func BenchmarkFilterGroupOnePred(b *testing.B) {
	tb, col, _ := benchFixture(b, 2)
	g, _ := col.GroupFor(0)
	preds := []GroupPred{{Off: 0, Op: expr.Lt, Val: 0}}
	sel := make([]int32, 0, benchRows)
	_ = tb
	b.SetBytes(benchRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = FilterGroup(g, preds, 0, g.Rows, sel[:0])
	}
	_ = sel
}

func BenchmarkFilterGroupTwoPredsFused(b *testing.B) {
	tb, _, _ := benchFixture(b, 2)
	g := storage.BuildGroup(tb, []data.AttrID{0, 1})
	preds := []GroupPred{
		{Off: 0, Op: expr.Lt, Val: 0},
		{Off: 1, Op: expr.Gt, Val: 0},
	}
	sel := make([]int32, 0, benchRows)
	b.SetBytes(benchRows * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = FilterGroup(g, preds, 0, g.Rows, sel[:0])
	}
	_ = sel
}

func BenchmarkRefineSel(b *testing.B) {
	tb, col, _ := benchFixture(b, 2)
	g, _ := col.GroupFor(1)
	all := FilterGroup(g, nil, 0, g.Rows, nil)
	preds := []GroupPred{{Off: 0, Op: expr.Gt, Val: 0}}
	scratch := make([]int32, len(all))
	_ = tb
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, all)
		RefineSel(g, preds, scratch)
	}
}

func BenchmarkGatherColumn(b *testing.B) {
	tb, col, _ := benchFixture(b, 2)
	g, _ := col.GroupFor(1)
	gp, _ := col.GroupFor(0)
	sel := FilterGroup(gp, []GroupPred{{Off: 0, Op: expr.Lt, Val: 0}}, 0, gp.Rows, nil)
	out := make([]data.Value, len(sel))
	_ = tb
	b.SetBytes(int64(len(sel)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GatherColumn(g, 0, sel, out)
	}
}

func BenchmarkSumOffsetsAll(b *testing.B) {
	tb, _, _ := benchFixture(b, 5)
	g := storage.BuildGroup(tb, []data.AttrID{0, 1, 2, 3, 4})
	out := make([]data.Value, g.Rows)
	b.SetBytes(benchRows * 5 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumOffsetsAll(g, []int{0, 1, 2, 3, 4}, out)
	}
}

// BenchmarkStrategy* time the four execution strategies on the same query —
// an aggregation over 10 of 50 attributes with a 50% filter — exposing the
// per-strategy overheads the engine's cost model has to rank.

func strategyQuery() *query.Query {
	attrs := []data.AttrID{3, 7, 12, 18, 22, 28, 33, 39, 44, 48}
	return query.Aggregation("R", expr.AggMax, attrs, query.PredLt(0, 0))
}

func BenchmarkStrategyRow(b *testing.B) {
	_, _, row := benchFixture(b, 50)
	q := strategyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(row, q, ExecOpts{Strategy: StrategyRow}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyColumn(b *testing.B) {
	_, col, _ := benchFixture(b, 50)
	q := strategyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(col, q, ExecOpts{Strategy: StrategyColumn}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyHybrid(b *testing.B) {
	tb, _, _ := benchFixture(b, 50)
	rel, err := storage.BuildPartitioned(tb, [][]data.AttrID{
		{0, 3, 7, 12, 18}, {22, 28, 33, 39, 44, 48},
		allExcept(50, []data.AttrID{0, 3, 7, 12, 18, 22, 28, 33, 39, 44, 48}),
	})
	if err != nil {
		b.Fatal(err)
	}
	q := strategyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(rel, q, ExecOpts{Strategy: StrategyHybrid}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrategyGeneric(b *testing.B) {
	_, _, row := benchFixture(b, 50)
	q := strategyQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(row, q, ExecOpts{Strategy: StrategyGeneric}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipeline* time the streaming pipeline's segment-level fan-out:
// the same strategy on the same multi-segment relation, serial vs one worker
// per core. The parallel sub-runs should scale with segment count — they are
// the CI-visible proof that column and hybrid execution fan out per
// segment instead of serializing phases.

func benchPipeline(b *testing.B, rel *storage.Relation, s Strategy) {
	b.Helper()
	q := strategyQuery()
	fanOut := runtime.NumCPU()
	if fanOut < 4 {
		fanOut = 4 // keep the fan-out visible on small CI machines
	}
	for _, workers := range []int{1, fanOut} {
		name := "serial"
		if workers > 1 {
			name = fmt.Sprintf("workers=%d", workers)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(benchRows * 11 * 8)
			for i := 0; i < b.N; i++ {
				if _, err := Exec(rel, q, ExecOpts{Strategy: s, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPipelineColumn(b *testing.B) {
	tb := data.Generate(data.SyntheticSchema("R", 50), benchRows, 42)
	benchPipeline(b, storage.BuildColumnMajorSeg(tb, benchRows/16), StrategyColumn)
}

func BenchmarkPipelineHybrid(b *testing.B) {
	tb := data.Generate(data.SyntheticSchema("R", 50), benchRows, 42)
	benchPipeline(b, storage.BuildRowMajorSeg(tb, false, benchRows/16), StrategyHybrid)
}

func BenchmarkReorgOnline(b *testing.B) {
	_, col, _ := benchFixture(b, 50)
	attrs := []data.AttrID{0, 3, 7, 12, 18, 22, 28, 33, 39, 44}
	q := query.Aggregation("R", expr.AggMax, attrs, nil)
	b.SetBytes(int64(len(attrs)) * benchRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(col, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: attrs}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStitchOffline(b *testing.B) {
	_, col, _ := benchFixture(b, 50)
	attrs := []data.AttrID{0, 3, 7, 12, 18, 22, 28, 33, 39, 44}
	b.SetBytes(int64(len(attrs)) * benchRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := storage.Stitch(col, attrs); err != nil {
			b.Fatal(err)
		}
	}
}

func allExcept(n int, excl []data.AttrID) []data.AttrID {
	skip := map[data.AttrID]bool{}
	for _, a := range excl {
		skip[a] = true
	}
	var out []data.AttrID
	for a := 0; a < n; a++ {
		if !skip[a] {
			out = append(out, a)
		}
	}
	return out
}
