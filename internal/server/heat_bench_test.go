package server

import (
	"context"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// heatSink keeps the benchmarked snapshot alive.
var heatSink map[int]int

// BenchmarkSegmentHeat times one SegmentHeat snapshot — the call every
// over-budget eviction pass makes — against a full result cache (4096
// entries over a 64-segment table) and a partials cache filled to its
// default budget (about a thousand payloads, reported as "payloads"). The
// fixture is built through Server.Query only, so the
// benchmark runs unchanged against any version of the caches.
func BenchmarkSegmentHeat(b *testing.B) {
	const segCap, segs, entries = 64, 64, 4096
	be := newSegmentedBackend(b, segs*segCap, segCap, frozenOptions())
	s := New(be, Config{Workers: 1, CacheShards: 16, CacheEntries: entries})
	defer s.Close()
	ops := []expr.AggOp{expr.AggSum, expr.AggCount, expr.AggMin, expr.AggMax}
	ctx := context.Background()
	// Each distinct (op, attribute, bound) is a distinct repairable query
	// that touches the ceil(bound/segCap) segments below its bound.
	for i := 0; s.CacheSize() < entries; i++ {
		if i == 4*entries {
			b.Fatalf("result cache holds %d entries after %d queries, want %d", s.CacheSize(), i, entries)
		}
		op, attr := ops[i%len(ops)], data.AttrID(1+i/len(ops)%3)
		bound := data.Value(1 + (i*37)%(segs*segCap))
		q := query.Aggregation("R", op, []data.AttrID{attr}, query.PredLt(0, bound))
		if _, _, err := s.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heatSink = s.SegmentHeat("R")
	}
	b.StopTimer()
	payloads, _ := s.partials.size()
	b.ReportMetric(float64(payloads), "payloads")
}
