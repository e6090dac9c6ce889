package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"h2o"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/workload"
)

// op is one operation of a workload's sequence: a select (spec set) or an
// insert of rows into table.
type op struct {
	sql   string
	table string
	spec  *selectSpec
	rows  [][]int64
}

// workloadDef is everything a run needs from a workload: how to build its
// tables, the whole operation sequence (generated from the seed before any
// timing), how much of it warms the system up during set-up, and the fixed
// sample of templates the correctness check re-issues.
type workloadDef struct {
	name string
	opts h2o.Options
	// tables generates the benchmark's own copy of every table's rows;
	// each set-up calls it afresh.
	tables func() []*tableData
	// ops holds each distinct operation once and seq is the sequence, as
	// indices into ops. seq holds no pointers, so the collector never scans
	// it: however long the sequence, the program under test does no GC work
	// for it.
	ops    []op
	seq    []int32
	warmup int
	checks []*selectSpec
	// spill makes set-up create a spill directory for the tables.
	spill bool
}

// Sizes. Each operation sequence holds at least five times the operations
// the 2-core host the benchmark was tuned on completes in a 25 s run, so a
// much faster program still finds it long enough.
const (
	dashSegRows = 64 << 10
	dashRows    = 15*dashSegRows + dashSegRows/2 // tail segment starts half full
	dashAttrs   = 16
	dashKeys    = 64
	dashOps     = 5_000_000
	// One operation in dashInsertEvery is a single-row insert. Each insert
	// holds the engine's exclusive lock for a tail copy (~3 ms), and the
	// selects that wait for it, or rescan the tail after it, are the
	// slowest class of selects. select_p99_ms has to fall inside one class,
	// not on the edge between two: at one insert in 400 the slow class was
	// about 1% of selects (p98.5 0.5 ms, p99 1.5-1.8 ms, p99.3 2-2.5 ms) and
	// p99 spread up to 0.38 over ten runs; at one in 800 p99 falls inside
	// the delta repairs (p98.5 0.04 ms, p99 0.45-0.49 ms, p99.5 1.8 ms).
	dashInsertEvery = 800

	adhocRows        = 16 << 10
	adhocSegRows     = 4 << 10
	adhocDimRows     = 1024
	adhocDimCols     = 8
	adhocOps         = 30_000
	adhocExtraGroups = 32

	tierRows       = 512 << 10
	tierSegRows    = 16 << 10
	tierAttrs      = 16
	tierShardMiB   = 8
	tierBatch      = 50
	tierOps        = 45_000
	tierOlderRows  = 32 << 10
	tierFetchRows  = 256
	tierRecentWin  = 64 << 10
	tierRecentRows = 8 << 10
	tierWarmup     = 400 // two whole tierMix blocks
)

// The mixes, per block of operations (see deal).
var (
	// adhoc: SkyServer queries, joins — one in 20.
	adhocMix = [...]int{19, 1}
	// tiered: batch inserts, recent aggregates, older aggregates, older row
	// fetches, full scans.
	tierMix = [...]int{40, 112, 21, 21, 6}
)

// deal returns n operation kinds, block by block: every block holds
// exactly perBlock[k] operations of kind k, in an order drawn from rng.
// Every stretch of the sequence then carries the workload's mix.
func deal(rng *rand.Rand, n int, perBlock ...int) []int {
	var block []int
	for k, c := range perBlock {
		for i := 0; i < c; i++ {
			block = append(block, k)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// inOrder is the sequence of n distinct operations, each issued once.
func inOrder(n int) []int32 {
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(i)
	}
	return seq
}

func defineWorkload(name string, seed int64) (*workloadDef, error) {
	switch name {
	case "dashboard":
		return dashboard(seed), nil
	case "adhoc":
		return adhoc(seed), nil
	case "tiered":
		return tiered(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want dashboard, adhoc or tiered)", name)
}

func insertSQL(table string, rows [][]int64) string {
	var b strings.Builder
	b.WriteString("insert into ")
	b.WriteString(table)
	b.WriteString(" values ")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.FormatInt(v, 10))
		}
		b.WriteByte(')')
	}
	return b.String()
}

func selectOp(s *selectSpec, leftWidth int) op {
	return op{sql: s.sql(leftWidth), table: s.table, spec: s}
}

// dashboard: a fixed set of panel queries over a 16-attribute time series
// (a0 = timestamp, a1 = one of 64 hosts), refreshed over and over, with a
// single-row insert every 800th operation.
func dashboard(seed int64) *workloadDef {
	const t = "metrics"
	recent := int64(dashRows - 100_000)
	latest := int64(dashRows - 20_000)
	agg := func(op string, cols ...colRef) aggSpec { return aggSpec{op: op, cols: cols} }
	ge := func(c colRef, v int64) condSpec { return condSpec{col: c, op: ">=", v: v} }
	lt := func(c colRef, v int64) condSpec { return condSpec{col: c, op: "<", v: v} }
	panels := []*selectSpec{
		{table: t, groupBy: -1, aggs: []aggSpec{agg("count", 2), agg("sum", 2)}},
		{table: t, groupBy: -1, aggs: []aggSpec{agg("sum", 3), agg("max", 4), agg("min", 5)}},
		{table: t, groupBy: 1, aggs: []aggSpec{agg("count", 6), agg("sum", 6)}},
		{table: t, groupBy: 1, aggs: []aggSpec{agg("max", 7)}, where: []condSpec{ge(0, recent)}},
		{table: t, groupBy: -1, aggs: []aggSpec{agg("avg", 8), agg("count", 8)}, where: []condSpec{ge(0, recent)}},
		{table: t, groupBy: -1, aggs: []aggSpec{agg("sum", 9, 10)}, where: []condSpec{ge(0, latest)}},
		{table: t, groupBy: -1, aggs: []aggSpec{agg("max", 11), agg("min", 11)}, where: []condSpec{ge(0, recent), lt(1, 8)}},
		{table: t, groupBy: -1, aggs: []aggSpec{agg("avg", 12)}, where: []condSpec{ge(0, 100_000), lt(0, 400_000)}},
		{table: t, groupBy: 1, aggs: []aggSpec{agg("sum", 13)}, where: []condSpec{ge(0, 200_000), lt(0, 300_000)}},
		{table: t, groupBy: -1, aggs: []aggSpec{agg("count", 14), agg("max", 14)}, where: []condSpec{lt(0, dashSegRows)}},
		// Alert panel: the ~500 rows above a threshold. Not an aggregate, so
		// it is never delta-repaired; every insert sends it to a full scan.
		// Every segment, the tail included, holds such rows, so that holds
		// on every seed.
		{table: t, groupBy: -1, proj: []colRef{0, 15}, where: []condSpec{{col: 15, op: ">", v: 999_500}}},
		{table: t, groupBy: -1, aggs: []aggSpec{agg("sum", 2), agg("count", 3)}, where: []condSpec{{col: 1, op: "=", v: 7}}},
	}
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, len(panels)+dashOps/dashInsertEvery)
	for _, p := range panels {
		ops = append(ops, selectOp(p, dashAttrs))
	}
	seq := make([]int32, dashOps)
	// A refresh runs the panels in order, over and over, and every
	// dashInsertEvery-th operation is an insert. Cache hits never reach the
	// engine, so which panels miss — the stream adaptation learns from —
	// follows the insert schedule; a fixed schedule keeps the adapted layout,
	// and with it the run's speed and footprint, the same on every seed.
	ts := int64(dashRows)
	for i, panel := 0, 0; i < len(seq); i++ {
		if i%dashInsertEvery == dashInsertEvery-1 {
			row := make([]int64, dashAttrs)
			row[0], row[1] = ts, rng.Int63n(dashKeys)
			for a := 2; a < dashAttrs; a++ {
				row[a] = rng.Int63n(1_000_000)
			}
			ts++
			rows := [][]int64{row}
			seq[i] = int32(len(ops))
			ops = append(ops, op{sql: insertSQL(t, rows), table: t, rows: rows})
			continue
		}
		seq[i] = int32(panel)
		panel = (panel + 1) % len(panels)
	}
	opts := h2o.DefaultOptions()
	return &workloadDef{
		name:   "dashboard",
		opts:   opts,
		tables: func() []*tableData { return []*tableData{timeSeries(t, dashRows, dashAttrs, seed, false)} },
		ops:    ops,
		seq:    seq,
		warmup: 6000,
		checks: panels,
	}
}

// timeSeries generates a time-series table: a0 is the row position, a1 a
// host key in [0, 64), the rest values in [0, 1e6) — uniform, or, with walk
// set, a2..a7 as bounded random walks that the encoded tier compresses.
func timeSeries(name string, rows, attrs int, seed int64, walk bool) *tableData {
	rng := rand.New(rand.NewSource(seed ^ 0x7ab1e))
	cols := make([][]int64, attrs)
	for a := range cols {
		cols[a] = make([]int64, rows)
	}
	for r := 0; r < rows; r++ {
		cols[0][r] = int64(r)
		cols[1][r] = rng.Int63n(dashKeys)
	}
	for a := 2; a < attrs; a++ {
		c := cols[a]
		if walk && a < 8 {
			v := int64(500_000)
			for r := range c {
				v += rng.Int63n(201) - 100
				c[r] = v
			}
			continue
		}
		for r := range c {
			c[r] = rng.Int63n(1_000_000)
		}
	}
	return &tableData{name: name, cols: cols}
}

// adhoc: the paper's workload — SkyServer-shaped queries over the 446-wide
// PhotoObjAll, a fresh trace per pass so constants never repeat, with ~5%
// equi-joins against a small dimension table. No inserts.
func adhoc(seed int64) *workloadDef {
	const fact, dim = "PhotoObjAll", "dim"
	w := workload.PhotoObjAllAttrs
	rng := rand.New(rand.NewSource(seed))
	join := func() *selectSpec {
		x := 10 + rng.Intn(8) // the astrometry block
		return &selectSpec{
			table: fact, groupBy: -1,
			join:  &joinSpec{table: dim, leftKey: 1, rightKey: 0},
			aggs:  []aggSpec{{op: "sum", cols: []colRef{x}}, {op: "max", cols: []colRef{w + 1 + rng.Intn(adhocDimCols-1)}}, {op: "count", cols: []colRef{w}}},
			where: []condSpec{{col: x, op: "<", v: rng.Int63n(2e9) - 1e9}},
		}
	}
	// Pass k replays the query shapes of SkyServer trace k — the same shapes
	// on every seed, as a fixed query log would — with the predicate
	// constants drawn afresh from the seed, so constants never repeat.
	fresh := func(q *query.Query) *selectSpec {
		s := specOf(q)
		s.where[0].v = rng.Int63n(2e9) - 1e9
		return s
	}
	const joinQuery = 1
	kinds := deal(rng, adhocOps, adhocMix[:]...)
	ops := make([]op, adhocOps)
	var trace []*query.Query
	for i, pass := 0, int64(0); i < len(ops); i++ {
		if kinds[i] == joinQuery {
			ops[i] = selectOp(join(), w)
			continue
		}
		if len(trace) == 0 {
			pass++
			trace = workload.SkyServerTrace(adhocRows, pass)
		}
		ops[i] = selectOp(fresh(trace[0]), w)
		trace = trace[1:]
	}
	// The check sample: both SkyServer templates (per-attribute max, and
	// sum of an attribute expression) and joins, with shapes from a trace
	// the run never replays.
	var checks []*selectSpec
	for _, q := range workload.SkyServerTrace(adhocRows, 0)[:16] {
		checks = append(checks, fresh(q))
	}
	for i := 0; i < 4; i++ {
		checks = append(checks, join())
	}
	opts := h2o.DefaultOptions()
	opts.SegmentCapacity = adhocSegRows
	// Room for adhocExtraGroups adapted groups per segment beside the base
	// columns: the warm-up fills it, so the measured phase runs at a steady
	// footprint, creating and evicting groups, instead of growing for as
	// long as it runs.
	opts.MaxGroups = w + adhocExtraGroups
	return &workloadDef{
		name: "adhoc",
		opts: opts,
		tables: func() []*tableData {
			t := h2o.Generate(h2o.SyntheticSchema(fact, w), adhocRows, seed)
			// a1 is the join key into dim: a category in [0, 1024).
			krng := rand.New(rand.NewSource(seed ^ 0xd1))
			for r := range t.Cols[1] {
				t.Cols[1][r] = krng.Int63n(adhocDimRows)
			}
			d := h2o.Generate(h2o.SyntheticSchema(dim, adhocDimCols), adhocDimRows, seed+1)
			for r := range d.Cols[0] {
				d.Cols[0][r] = int64(r)
			}
			return []*tableData{{name: fact, cols: t.Cols}, {name: dim, cols: d.Cols}}
		},
		ops:    ops,
		seq:    inOrder(len(ops)),
		warmup: 500,
		checks: checks,
	}
}

// specOf converts a SkyServer trace query — per-attribute aggregates or an
// aggregate over a sum of attributes, under one "attr < const" predicate —
// into a spec. It panics on any other shape: the trace generator changed
// and the oracle would no longer describe the query.
func specOf(q *query.Query) *selectSpec {
	s := &selectSpec{table: q.Table, groupBy: -1}
	for _, it := range q.Items {
		if it.Agg == nil || strings.ContainsAny(it.Agg.Arg.String(), "-*/") {
			panic("perfbench: unexpected SkyServer item " + it.String())
		}
		s.aggs = append(s.aggs, aggSpec{op: it.Agg.Op.String(), cols: it.Agg.Arg.Attrs(nil)})
	}
	if q.Where != nil {
		c, ok := q.Where.(*expr.Cmp)
		if !ok || c.Op != expr.Lt {
			panic("perfbench: unexpected SkyServer predicate " + q.Where.String())
		}
		s.where = []condSpec{{col: c.L.(*expr.Col).ID, op: "<", v: c.R.(*expr.Const).V}}
	}
	return s
}

// tiered: ingest plus lookback over a time series larger than its memory
// budget, split across two shards with the encoded tier on. The mix is
// tierMix: 20% batch inserts, 56% recent range aggregates, 21% older
// lookbacks and 3% full scans.
func tiered(seed int64) *workloadDef {
	const t = "ts"
	// The warm-up and the order of kinds throughout are the same on every
	// seed; the seed draws the table, and the rows and ranges from the
	// measured phase on. Where a seeded warm-up's lookbacks fell decided
	// how many spilled segments it faulted in, and set-up time differed
	// between seeds by up to 1.8x (1.0-1.2 s on one seed, 1.7-2.0 s on
	// another, in repeated runs).
	fixed := rand.New(rand.NewSource(1))
	rng := fixed
	rangeQuery := func(lo, hi int64) *selectSpec {
		a := 2 + rng.Intn(6)
		return &selectSpec{table: t, groupBy: -1,
			aggs:  []aggSpec{{op: "sum", cols: []colRef{a}}, {op: "max", cols: []colRef{a + 6}}, {op: "count", cols: []colRef{1}}},
			where: []condSpec{{col: 0, op: ">=", v: lo}, {col: 0, op: "<", v: hi}}}
	}
	// A full scan visits every segment: its predicate holds everywhere
	// (values are never negative), and the constant changes each time so its
	// text never repeats and it is never repaired from an earlier one's
	// partials.
	scans := int64(0)
	fullScan := func() *selectSpec {
		scans++
		return &selectSpec{table: t, groupBy: -1,
			aggs:  []aggSpec{{op: "sum", cols: []colRef{8}}, {op: "min", cols: []colRef{2}}, {op: "count", cols: []colRef{10}}},
			where: []condSpec{{col: 11, op: ">=", v: -scans}}}
	}
	// A recent aggregate covers tierRecentRows rows inside the newest
	// tierRecentWin; every one costs about the same, so select_p50_ms sits
	// inside this class.
	recent := func(n int64) *selectSpec {
		lo := n - tierRecentWin + rng.Int63n(tierRecentWin-tierRecentRows)
		return rangeQuery(lo, lo+tierRecentRows)
	}
	// An older lookback is a range aggregate, or a drill-down fetching a
	// few hundred rows, anywhere before the recent window: aggregates run
	// on the encoded blocks, row fetches need the rows themselves.
	olderAgg := func(n int64) *selectSpec {
		lo := rng.Int63n(n - tierRecentWin)
		return rangeQuery(lo, lo+tierOlderRows)
	}
	olderFetch := func(n int64) *selectSpec {
		lo := rng.Int63n(n - tierRecentWin)
		return &selectSpec{table: t, groupBy: -1, proj: []colRef{0, 2 + rng.Intn(tierAttrs-2)},
			where: []condSpec{{col: 0, op: ">=", v: lo}, {col: 0, op: "<", v: lo + tierFetchRows}}}
	}
	const (
		insert = iota
		recentAgg
		oldAgg
		oldFetch
		scan
	)
	kinds := deal(fixed, tierOps, tierMix[:]...)
	ops := make([]op, tierOps)
	n := int64(tierRows)
	for i := range ops {
		if i == tierWarmup {
			rng = rand.New(rand.NewSource(seed))
		}
		switch kinds[i] {
		case insert:
			rows := make([][]int64, tierBatch)
			for j := range rows {
				row := make([]int64, tierAttrs)
				row[0], row[1] = n, rng.Int63n(dashKeys)
				for a := 2; a < tierAttrs; a++ {
					row[a] = rng.Int63n(1_000_000)
				}
				rows[j] = row
				n++
			}
			ops[i] = op{sql: insertSQL(t, rows), table: t, rows: rows}
		case recentAgg:
			ops[i] = selectOp(recent(n), tierAttrs)
		case oldAgg:
			ops[i] = selectOp(olderAgg(n), tierAttrs)
		case oldFetch:
			ops[i] = selectOp(olderFetch(n), tierAttrs)
		case scan:
			ops[i] = selectOp(fullScan(), tierAttrs)
		}
	}
	var checks []*selectSpec
	for i := 0; i < 3; i++ {
		checks = append(checks, recent(tierRows), olderAgg(tierRows), olderFetch(tierRows), fullScan())
	}
	opts := h2o.DefaultOptions()
	opts.Shards = 2
	opts.EncodedTier = true
	opts.SegmentCapacity = tierSegRows
	opts.MemoryBudgetBytes = tierShardMiB << 20
	return &workloadDef{
		name:   "tiered",
		opts:   opts,
		tables: func() []*tableData { return []*tableData{timeSeries(t, tierRows, tierAttrs, seed, true)} },
		ops:    ops,
		seq:    inOrder(len(ops)),
		warmup: tierWarmup,
		checks: checks,
		spill:  true,
	}
}
