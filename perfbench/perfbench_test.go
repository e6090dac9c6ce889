package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"h2o"
	"h2o/internal/server"
	"h2o/internal/sql"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{21, 0.50, 11},
		{20, 0.50, 10}, // rank 10, exactly 10 samples beyond
		{1000, 0.99, 990},
		{2000, 0.99, 1980},
		{100, 0.90, 90},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..%d = %v, %v; want %v", c.p*100, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesFewerThanTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{19, 0.50},  // rank 10, 9 beyond
		{999, 0.99}, // rank 990, 9 beyond
		{99, 0.90},  // rank 90, 9 beyond
		{0, 0.50},
	} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%g of %d samples = %v, want refusal", c.p*100, c.n, v)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(data, n=4) in Python 3.
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{9, 1, 5}, [3]float64{1, 5, 9}},
	} {
		q1, q2, q3, err := quartiles(c.data)
		if err != nil || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v", c.data, q1, q2, q3, err, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	sps := []span{
		{kind: spanQuery, parent: -1, start: 0, end: 100},
		{kind: spanFingerprint, parent: 0, start: 10, end: 30},
		{kind: spanDelta, parent: 0, start: 20, end: 50}, // overlaps the first child
		{kind: spanExec, parent: 0, start: 90, end: 120}, // ends after the parent
		{kind: spanExec, parent: 3, start: 95, end: 99},
	}
	self := selfTimes(sps)
	// Covered: [10,50) and [90,100) = 50 of 100.
	if self[0] != 50 {
		t.Errorf("parent self time = %d, want 50", self[0])
	}
	if self[3] != 26 {
		t.Errorf("child self time = %d, want 26", self[3])
	}
	if self[1] != 20 {
		t.Errorf("leaf self time = %d, want its duration 20", self[1])
	}
}

// tinyDB registers a two-segment table so delta repair and the fingerprint
// memo are live.
func tinyDB(t *testing.T) (*h2o.DB, *tableData, sql.SchemaMap) {
	t.Helper()
	opts := h2o.DefaultOptions()
	opts.SegmentCapacity = 64
	db := h2o.NewDBWith(opts)
	td := timeSeries("ts", 200, 4, 1, false)
	schema := h2o.SyntheticSchema("ts", 4)
	db.AddTable(&h2o.Table{Schema: schema, Rows: td.rows(), Cols: td.cols})
	t.Cleanup(db.Close)
	return db, td, sql.SchemaMap{"ts": schema}
}

func TestTracedRunLinksWorkerSpansToRequests(t *testing.T) {
	db, td, schemas := tinyDB(t)
	x, err := newTracedExec(db, h2o.DefaultOptions(), schemas)
	if err != nil {
		t.Fatal(err)
	}
	defer x.srv.Close()
	x.tr.setRecording(true)
	sel := &selectSpec{table: "ts", groupBy: -1, aggs: []aggSpec{{op: "sum", cols: []colRef{2}}}}
	ins := op{sql: insertSQL("ts", [][]int64{{200, 1, 2, 3}}), table: "ts", rows: [][]int64{{200, 1, 2, 3}}}
	ops := []op{selectOp(sel, 4), selectOp(sel, 4), ins, selectOp(sel, 4)}
	var wg sync.WaitGroup
	wg.Add(2)
	for c := 0; c < 2; c++ {
		go func() {
			defer wg.Done()
			for i := range ops {
				if ops[i].spec == nil {
					continue
				}
				if _, err := x.run(&ops[i]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if _, err := x.run(&ops[2]); err != nil {
		t.Fatal(err)
	}
	td.appendRows(ins.rows)
	res, err := x.run(&ops[3])
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(sel, len(res.Cols), res.Rows, res.Data, reference(sel, td, nil)); err != nil {
		t.Fatalf("traced select after insert: %v", err)
	}

	sps := x.tr.spans()
	self := selfTimes(sps)
	backend := 0
	for i, s := range sps {
		if self[i] < 0 || self[i] > s.dur() {
			t.Errorf("span %d (%s): self time %v outside [0, %v]", i, s.kind, self[i], s.dur())
		}
		switch s.kind {
		case spanOp:
			if s.parent != -1 {
				t.Errorf("op span %d has parent %d", i, s.parent)
			}
		case spanFingerprint, spanExec, spanDelta:
			backend++
			if s.parent < 0 {
				t.Errorf("backend span %d (%s) has no parent", i, s.kind)
				continue
			}
			p := sps[s.parent]
			if p.kind != spanQuery || p.req != s.req {
				t.Errorf("backend span %d (%s, req %d) has parent %s of req %d", i, s.kind, s.req, p.kind, p.req)
			}
		default:
			if s.parent < 0 || sps[s.parent].kind != spanOp || sps[s.parent].req != s.req {
				t.Errorf("span %d (%s) is not the child of its operation", i, s.kind)
			}
		}
	}
	if backend == 0 {
		t.Error("no backend spans recorded: the server never called the wrapper")
	}
}

func TestTracedBackendKeepsEveryCapability(t *testing.T) {
	var b server.Backend = newTracedBackend(nil, newTracer())
	if _, ok := b.(server.DeltaBackend); !ok {
		t.Error("tracedBackend lost DeltaBackend: delta repair would switch off")
	}
	if _, ok := b.(server.VersionBackend); !ok {
		t.Error("tracedBackend lost VersionBackend: the fingerprint memo would switch off")
	}
}

func TestLayerRatioBases(t *testing.T) {
	sps := []span{
		{kind: spanQuery, start: 0, end: 10, hit: true},
		{kind: spanQuery, start: 0, end: 10},
		{kind: spanQuery, start: 0, end: 10},
		{kind: spanQuery, start: 0, end: 10},
		{kind: spanFingerprint, start: 0, end: 1},
		{kind: spanDelta, start: 2, end: 3, ok: true, scanned: 2, pruned: 6, skips: 4, encoded: 2048},
		{kind: spanDelta, start: 2, end: 3, ok: true, scanned: 1, pruned: 1},
		{kind: spanDelta, start: 2, end: 3, ok: false},
		{kind: spanExec, start: 3, end: 4, reorg: true, reorgs: 3, scanned: 4},
		{kind: spanExec, start: 3, end: 4, join: true, scanned: 1, faulted: 1},
	}
	for i := range sps {
		sps[i].parent = -1
	}
	var before, after counters
	after.serve = server.Stats{Submitted: 4, CacheHits: 1, MemoHits: 2, Repaired: 1, RepairedSegments: 2,
		Republished: 1, Executed: 4}
	after.eng = h2o.Stats{Queries: 5, Reorgs: 1, Adaptations: 2, OpCacheHits: 3, OpCacheMisses: 1, GenericFallback: 1}
	after.tier = h2o.TierStats{Faults: 2, FaultedBytes: 1 << 20, Evictions: 4, Demotions: 6, SpillWrites: 8,
		SpilledBytes: 300, SpillFileBytes: 100}
	after.alloc, after.numGC = 4096, 2
	s := layerSheet(sps, before, after, 500, &system{})
	want := map[string]float64{
		"server.hit_ratio":                    1.0 / 4, // hits / submitted
		"server.memo_hit_ratio":               2.0 / 4, // memo hits / submitted
		"server.delta_reuse_ratio":            1.0 / 3, // repaired / ExecDelta calls
		"server.repaired_segments_per_repair": 2,       // repaired segments / repaired
		"server.republish_ratio":              1.0 / 4, // republished / executed
		"core.fingerprint_calls_per_select":   1.0 / 4, // Fingerprint calls / server.Query calls
		"core.delta_declined_ratio":           1.0 / 3, // declined / ExecDelta calls
		"core.insert_us_p50":                  0,       // no insert spans: reads 0, like an empty base
		"core.reorgs_per_kop":                 2,       // reorgs per 1000 operations
		"core.adaptations_per_kop":            4,
		"core.segments_reorganized_per_reorg": 3,       // per reorganizing Exec
		"opgen.cache_hit_ratio":               3.0 / 4, // hits / (hits + misses)
		"opgen.generic_fallback_ratio":        1.0 / 5, // fallbacks / engine queries
		"exec.segments_scanned_per_exec":      8.0 / 4, // over Exec and accepted ExecDelta calls
		"exec.prune_ratio":                    7.0 / 15,
		"exec.decode_skips_per_exec":          1,
		"exec.encoded_kb_per_exec":            0.5,
		"tier.faults_per_select":              2.0 / 4,
		"tier.faulted_mb_per_select":          1.0 / 4,
		"tier.evictions_per_kop":              8,
		"tier.demotions_per_kop":              12,
		"tier.spill_writes_per_kop":           16,
		"tier.spill_compression":              3, // spilled (flat) bytes / spill-file bytes
		"go.alloc_kb_per_op":                  4.0 / 500,
		"go.gc_cycles_per_kop":                4,
	}
	for name, w := range want {
		if got, ok := s.vals[name]; !ok || math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, w)
		}
	}
	if r := ratio(5, 0); r != 0 {
		t.Errorf("ratio over an empty base = %v, want 0", r)
	}
}

func TestQueueWaitStartsAfterAdmission(t *testing.T) {
	sps := []span{
		{kind: spanQuery, start: 100, end: 200},
		{kind: spanFingerprint, start: 110, end: 120},
		{kind: spanDelta, start: 150, end: 190},
		{kind: spanExec, start: 140, end: 145},
	}
	w, ok := queueWait(sps, 0, []int32{1, 2, 3})
	if !ok || w != 20 {
		t.Errorf("queue wait = %v, %v; want 20ns", w, ok)
	}
	if _, ok := queueWait(sps, 0, []int32{1}); ok {
		t.Error("a query without worker calls has no queue wait")
	}
	if w, _ := queueWait(sps, 0, []int32{3}); w != 40 {
		t.Errorf("queue wait without a fingerprint call = %v, want 40ns from the query start", w)
	}
}

func TestOracleHandComputed(t *testing.T) {
	// a0: 1 2 3 4 5, a1 (key): 0 1 0 1 1, a2: -3 10 7 0 2
	fact := &tableData{name: "f", cols: [][]int64{{1, 2, 3, 4, 5}, {0, 1, 0, 1, 1}, {-3, 10, 7, 0, 2}}}
	// dim: a0 key 0..2, a1: 100 200 300
	dim := &tableData{name: "d", cols: [][]int64{{0, 1, 2}, {100, 200, 300}}}
	agg := func(op string, cols ...colRef) aggSpec { return aggSpec{op: op, cols: cols} }
	for _, c := range []struct {
		spec *selectSpec
		want [][]int64
	}{
		{&selectSpec{table: "f", groupBy: -1, aggs: []aggSpec{agg("sum", 2), agg("count", 2), agg("max", 2), agg("min", 2), agg("avg", 2)}},
			[][]int64{{16, 5, 10, -3, 3}}},
		{&selectSpec{table: "f", groupBy: -1, aggs: []aggSpec{agg("sum", 0, 2)}, where: []condSpec{{0, ">=", 2}, {0, "<", 5}}},
			[][]int64{{2 + 10 + 3 + 7 + 4 + 0}}},
		{&selectSpec{table: "f", groupBy: -1, aggs: []aggSpec{agg("max", 2), agg("avg", 2), agg("count", 0)}, where: []condSpec{{0, ">", 9}}},
			[][]int64{{0, 0, 0}}},
		{&selectSpec{table: "f", groupBy: 1, aggs: []aggSpec{agg("sum", 2), agg("max", 0)}},
			[][]int64{{0, 4, 3}, {1, 12, 5}}},
		{&selectSpec{table: "f", groupBy: -1, aggs: []aggSpec{agg("avg", 2)}, where: []condSpec{{1, "=", 0}}},
			[][]int64{{2}}}, // (-3+7)/2
		{&selectSpec{table: "f", groupBy: -1, proj: []colRef{2, 0}, where: []condSpec{{2, "<=", 2}}},
			[][]int64{{-3, 1}, {0, 4}, {2, 5}}},
		{&selectSpec{table: "f", groupBy: -1, join: &joinSpec{table: "d", leftKey: 1, rightKey: 0},
			aggs: []aggSpec{agg("sum", 3+1), agg("count", 0)}, where: []condSpec{{0, "<", 5}}},
			[][]int64{{100 + 200 + 100 + 200, 4}}},
	} {
		if got := reference(c.spec, fact, dim); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.spec.sql(3), got, c.want)
		}
	}
}

func TestSpecSQL(t *testing.T) {
	s := &selectSpec{table: "f", groupBy: -1, join: &joinSpec{table: "d", leftKey: 1, rightKey: 0},
		aggs: []aggSpec{{op: "sum", cols: []colRef{0, 2}}, {op: "max", cols: []colRef{4}}}, where: []condSpec{{0, "<", -5}}}
	if got, want := s.sql(3), "select sum(a0 + a2), max(d.a1) from f join d on a1 = d.a0 where a0 < -5"; got != want {
		t.Errorf("sql = %q, want %q", got, want)
	}
	g := &selectSpec{table: "f", groupBy: 1, aggs: []aggSpec{{op: "count", cols: []colRef{2}}}, where: []condSpec{{0, ">=", 7}}}
	if got, want := g.sql(3), "select a1, count(a2) from f where a0 >= 7 group by a1"; got != want {
		t.Errorf("sql = %q, want %q", got, want)
	}
}

func TestSameResultProjectionIsOrderFree(t *testing.T) {
	s := &selectSpec{proj: []colRef{0, 1}}
	if err := sameResult(s, 2, 2, []int64{3, 4, 1, 2}, [][]int64{{1, 2}, {3, 4}}); err != nil {
		t.Error(err)
	}
	a := &selectSpec{groupBy: -1, aggs: []aggSpec{{op: "sum"}}}
	if err := sameResult(a, 1, 1, []int64{5}, [][]int64{{6}}); err == nil {
		t.Error("a wrong aggregate compared equal")
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []m
		code []struct{ name, unit string }
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.file), len(c.code))
		}
		for i := range c.file {
			if c.file[i].Name != c.code[i].name || c.file[i].Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %v, code %v", i, c.file[i], c.code[i])
			}
		}
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, name := range []string{"dashboard", "adhoc", "tiered"} {
		a, err := defineWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := defineWorkload(name, 3)
		c, _ := defineWorkload(name, 4)
		same, differ := true, false
		for i := 0; i < 2000; i++ {
			sa, sb, sc := a.ops[a.seq[i]].sql, b.ops[b.seq[i]].sql, c.ops[c.seq[i]].sql
			same = same && sa == sb
			differ = differ || sa != sc
		}
		if !same || !differ {
			t.Errorf("%s: same seed same ops %v, other seed differs %v", name, same, differ)
		}
	}
}
