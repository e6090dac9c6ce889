package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"h2o/internal/data"
	"h2o/internal/expr"
	"h2o/internal/query"
	"h2o/internal/storage"
)

// Cross-strategy equivalence harness: a generator-driven property test that
// runs randomized queries through every execution strategy on randomized
// segmented relations — mixed per-segment layouts, partial/exact-boundary
// tails, empty relations, 0–100% residency — and demands results identical
// to the generic interpreter. It is the safety net the segment-precise
// cache keying (and every future exec change) runs against: any strategy
// that diverges on some (layout, query, residency) combination fails here
// before it can poison a cached result.

const (
	eqSchemaWidth = 6
	eqSegCap      = 128
)

// eqRelation builds one randomized relation: random size (including zero
// rows and exact segment-boundary sizes), random base layout, random
// per-segment group additions so segments legitimately disagree on layout.
func eqRelation(t testing.TB, rng *rand.Rand) *storage.Relation {
	t.Helper()
	schema := data.SyntheticSchema("R", eqSchemaWidth)
	rowChoices := []int{0, 1, eqSegCap - 1, eqSegCap, 3 * eqSegCap, 4*eqSegCap + 77}
	rows := rowChoices[rng.Intn(len(rowChoices))]

	var tb *data.Table
	if rng.Intn(2) == 0 {
		tb = data.GenerateTimeSeries(schema, rows, rng.Int63()) // zone-map-prunable
	} else {
		tb = data.Generate(schema, rows, rng.Int63())
	}

	var rel *storage.Relation
	if rng.Intn(2) == 0 {
		rel = storage.BuildColumnMajorSeg(tb, eqSegCap)
	} else {
		rel = storage.BuildRowMajorSeg(tb, false, eqSegCap)
	}

	// Mixed layouts: stitch extra groups into a random subset of segments,
	// so covering-group resolution runs per segment, not per relation.
	all := make([]data.AttrID, eqSchemaWidth)
	for a := range all {
		all[a] = a
	}
	for _, seg := range rel.Segments {
		if seg.Rows == 0 {
			continue
		}
		switch rng.Intn(3) {
		case 0: // keep the base layout
		case 1: // add a full-width row group
			if _, ok := seg.ExactGroup(all); ok {
				continue
			}
			g, err := storage.StitchSeg(seg, all)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		case 2: // add a random narrow group (2–3 attrs)
			attrs := query.RandomAttrs(eqSchemaWidth, 2+rng.Intn(2), rng.Intn)
			if _, ok := seg.ExactGroup(attrs); ok {
				continue
			}
			g, err := storage.StitchSeg(seg, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rel
}

// eqPredConst picks a predicate constant: for the (possibly) position-valued
// attribute 0 a value in and around [0, rows); otherwise a draw from the
// full synthetic domain, occasionally extreme so match-nothing and
// match-everything predicates both occur.
func eqPredConst(rng *rand.Rand, attr data.AttrID, rows int) data.Value {
	switch rng.Intn(5) {
	case 0:
		return data.ValueLo - 1 // matches nothing for <, everything for >
	case 1:
		return data.ValueHi + 1
	default:
		if attr == 0 && rng.Intn(2) == 0 {
			return data.Value(rng.Intn(rows + 1))
		}
		return data.ValueLo + data.Value(rng.Int63n(int64(data.ValueHi-data.ValueLo)))
	}
}

// eqQuery generates one randomized query: projection / per-column
// aggregates / arithmetic expression / aggregated expression / grouped
// aggregation (mixed per-item ops, occasionally expression arguments or
// unselected keys) / key-only grouping over random attributes, with a random
// predicate shape (none, single comparison, conjunction, disjunction) and a
// random limit.
func eqQuery(rng *rand.Rand, rows int) *query.Query {
	attrs := query.RandomAttrs(eqSchemaWidth, 1+rng.Intn(3), rng.Intn)

	var where expr.Pred
	cmp := func() expr.Pred {
		a := data.AttrID(rng.Intn(eqSchemaWidth))
		ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge}
		return &expr.Cmp{Op: ops[rng.Intn(len(ops))], L: &expr.Col{ID: a},
			R: &expr.Const{V: eqPredConst(rng, a, rows)}}
	}
	switch rng.Intn(4) {
	case 0: // no predicate
	case 1:
		where = cmp()
	case 2:
		where = &expr.And{Terms: []expr.Pred{cmp(), cmp()}}
	case 3:
		// Disjunction: non-splittable — only the generic interpreter and
		// the parallel scan's interpreted filter support it; the rest must
		// cleanly report ErrUnsupported, never a wrong answer.
		where = &expr.Or{L: cmp(), R: cmp()}
	}

	var q *query.Query
	switch rng.Intn(6) {
	case 0:
		q = query.Projection("R", attrs, where)
	case 1:
		ops := []expr.AggOp{expr.AggSum, expr.AggMax, expr.AggMin, expr.AggCount, expr.AggAvg}
		q = query.Aggregation("R", ops[rng.Intn(len(ops))], attrs, where)
	case 2:
		q = query.ArithExpression("R", attrs, where)
	case 3:
		q = query.AggExpression("R", attrs, where)
	case 4:
		// Grouped aggregation: random keys, a mixed aggregate op per item,
		// occasionally an expression argument, occasionally a key left out of
		// the select list (legal: grouping still runs over the full key
		// vector, the output just omits that column).
		keys := query.RandomAttrs(eqSchemaWidth, 1+rng.Intn(2), rng.Intn)
		gb := make([]expr.Col, len(keys))
		items := make([]query.SelectItem, 0, len(keys)+len(attrs))
		for i, k := range keys {
			gb[i] = expr.Col{ID: k}
			if len(keys) == 1 || rng.Intn(4) != 0 {
				items = append(items, query.SelectItem{Expr: &expr.Col{ID: k}})
			}
		}
		ops := []expr.AggOp{expr.AggSum, expr.AggMax, expr.AggMin, expr.AggCount, expr.AggAvg}
		for _, a := range attrs {
			var arg expr.Expr = &expr.Col{ID: a}
			if rng.Intn(4) == 0 {
				arg = expr.SumCols(query.RandomAttrs(eqSchemaWidth, 2, rng.Intn))
			}
			items = append(items, query.SelectItem{Agg: &expr.Agg{Op: ops[rng.Intn(len(ops))], Arg: arg}})
		}
		q = &query.Query{Table: "R", Items: items, Where: where, GroupBy: gb}
	case 5:
		// Key-only grouping (DISTINCT-like): groups with no aggregates.
		keys := query.RandomAttrs(eqSchemaWidth, 1+rng.Intn(2), rng.Intn)
		gb := make([]expr.Col, len(keys))
		items := make([]query.SelectItem, len(keys))
		for i, k := range keys {
			gb[i] = expr.Col{ID: k}
			items[i] = query.SelectItem{Expr: &expr.Col{ID: k}}
		}
		q = &query.Query{Table: "R", Items: items, Where: where, GroupBy: gb}
	}
	if !q.HasAggregates() && len(q.GroupBy) == 0 && rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(2*eqSegCap)
	}
	// Grouped output is a key-ordered prefix under LIMIT, so limits compose
	// with every strategy; small ones exercise the trim.
	if len(q.GroupBy) > 0 && rng.Intn(4) == 0 {
		q.Limit = 1 + rng.Intn(6)
	}
	return q
}

// trimLimit truncates a materialized result to q.Limit rows, mirroring the
// engine's applyLimit: strategies stop consuming *segments* at the limit
// but may overshoot within the last one, and the overshoot may legitimately
// differ between strategies.
func trimLimit(q *query.Query, r *Result) *Result {
	if q.Limit <= 0 || r.Rows <= q.Limit {
		return r
	}
	return &Result{Cols: r.Cols, Rows: q.Limit, Data: r.Data[:q.Limit*len(r.Cols)]}
}

// groupedRowsEqual compares two grouped results order-insensitively: equal
// column sets and equal row multisets, regardless of emission order. The
// strategies additionally promise key-ordered emission (which exact Equal
// checks); this weaker comparison isolates "wrong groups" failures from
// "right groups, wrong order" failures.
func groupedRowsEqual(a, b *Result) bool {
	if a.Rows != b.Rows || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	w := len(a.Cols)
	count := make(map[string]int, a.Rows)
	for i := 0; i < a.Rows; i++ {
		count[fmt.Sprint(a.Data[i*w:(i+1)*w])]++
	}
	for i := 0; i < b.Rows; i++ {
		count[fmt.Sprint(b.Data[i*w:(i+1)*w])]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// unloadFraction spills the given fraction of sealed, resident segments
// (rounded up), coldest-index-first for determinism.
func unloadFraction(rel *storage.Relation, frac float64) {
	if frac <= 0 {
		return
	}
	sealed := make([]*storage.Segment, 0, len(rel.Segments))
	for _, seg := range rel.Segments[:len(rel.Segments)-1] {
		if seg.Rows > 0 {
			sealed = append(sealed, seg)
		}
	}
	n := int(frac*float64(len(sealed)) + 0.999999)
	for i := 0; i < n && i < len(sealed); i++ {
		sealed[i].Unload()
	}
}

// demoteFraction drops the flat data of the given fraction of sealed,
// flat-resident segments (rounded up) to the encoded rung, lowest index
// first for determinism. Unlike unloadFraction it is always safe after
// mutations: the encoding is built from the segment's current data.
func demoteFraction(rel *storage.Relation, frac float64) {
	if frac <= 0 || len(rel.Segments) == 0 {
		return
	}
	var sealed []*storage.Segment
	for _, seg := range rel.Segments[:len(rel.Segments)-1] {
		if seg.Rows > 0 && seg.State() == storage.SegResident {
			sealed = append(sealed, seg)
		}
	}
	n := int(frac*float64(len(sealed)) + 0.999999)
	for i := 0; i < n && i < len(sealed); i++ {
		sealed[i].DemoteToEncoded()
	}
}

// eqStrategy is one strategy under test.
type eqStrategy struct {
	name string
	// rowShape marks strategies that need a single covering group per
	// segment; they are skipped (not failed) when the layout lacks one.
	rowShape bool
	run      func(rel *storage.Relation, q *query.Query) (*Result, error)
}

func eqStrategies(rng *rand.Rand) []eqStrategy {
	return []eqStrategy{
		{"row", true, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyRow})
		}},
		{"row-parallel", true, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyRow, Workers: 1 + rng.Intn(7)})
		}},
		{"column", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyColumn})
		}},
		{"hybrid", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyHybrid})
		}},
		{"generic", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
		}},
		{"encoded", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			return Exec(rel, q, ExecOpts{Strategy: StrategyEncoded})
		}},
		{"reorg", false, func(rel *storage.Relation, q *query.Query) (*Result, error) {
			// Random hot mask: the reorganizing executor must answer
			// identically whichever segments it stitches, and it must not
			// register the groups it builds (the engine does that).
			hot := make([]bool, len(rel.Segments))
			for i := range hot {
				hot[i] = rng.Intn(2) == 0
			}
			return Exec(rel, q, ExecOpts{Strategy: StrategyReorg, ReorgAttrs: q.AllAttrs(), HotMask: hot})
		}},
	}
}

// checkEquivalence runs every strategy against the generic reference on one
// (relation, query, residency) combination.
func checkEquivalence(t *testing.T, rng *rand.Rand, rel *storage.Relation, q *query.Query, residentFrac float64) {
	t.Helper()
	want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
	if err != nil {
		t.Fatalf("reference execution failed for %s: %v", q, err)
	}
	want = trimLimit(q, want)

	for _, s := range eqStrategies(rng) {
		// Re-establish the residency mix before each strategy: the previous
		// one faulted whatever it scanned back in. Half of the segments left
		// flat-resident are then demoted to the encoded rung, so every
		// strategy sees flat, encoded and spilled segments side by side.
		unloadFraction(rel, 1-residentFrac)
		demoteFraction(rel, 0.5)
		if s.rowShape && !RowCovered(rel, q) {
			continue
		}
		got, err := s.run(rel, q)
		if err == ErrUnsupported {
			continue // shape outside the strategy's template library
		}
		if err != nil {
			t.Fatalf("strategy %s failed on %s (resident %.0f%%): %v", s.name, q, residentFrac*100, err)
		}
		got = trimLimit(q, got)
		if len(q.GroupBy) > 0 && !groupedRowsEqual(got, want) {
			t.Fatalf("strategy %s produced wrong groups on %s (resident %.0f%%):\n got %d rows %v\nwant %d rows %v",
				s.name, q, residentFrac*100, got.Rows, got.Data, want.Rows, want.Data)
		}
		if !got.Equal(want) {
			t.Fatalf("strategy %s diverged on %s (resident %.0f%%):\n got %d rows %v\nwant %d rows %v",
				s.name, q, residentFrac*100, got.Rows, got.Data, want.Rows, want.Data)
		}
	}
}

// TestCrossStrategyEquivalence is the harness entry point: for each
// residency level, a fresh set of randomized relations each runs a batch of
// randomized queries through every strategy.
func TestCrossStrategyEquivalence(t *testing.T) {
	const (
		relationsPerLevel = 5
		queriesPerRel     = 14
	)
	for _, residentFrac := range []float64{0, 0.5, 1} {
		residentFrac := residentFrac
		t.Run(fmt.Sprintf("resident=%.0f%%", residentFrac*100), func(t *testing.T) {
			rng := rand.New(rand.NewSource(20140622 + int64(residentFrac*100)))
			for r := 0; r < relationsPerLevel; r++ {
				rel := eqRelation(t, rng)
				installSnapshotLoader(rel)
				for i := 0; i < queriesPerRel; i++ {
					q := eqQuery(rng, rel.Rows)
					checkEquivalence(t, rng, rel, q, residentFrac)
				}
			}
		})
	}
}

// eqMutate applies a batch of randomized mutations to rel: tail appends
// (possibly rolling the tail over into a fresh segment) and segment-local
// reorganizations (a stitched group added to a random non-empty segment,
// bumping its version exactly as incremental adaptation does).
func eqMutate(t testing.TB, rng *rand.Rand, rel *storage.Relation) {
	t.Helper()
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(3) {
		case 0, 1: // appends, occasionally a burst that seals the tail
			count := 1 + rng.Intn(2*eqSegCap/3)
			for i := 0; i < count; i++ {
				tuple := make([]data.Value, eqSchemaWidth)
				tuple[0] = data.Value(rel.Rows) // keep attr 0 append-ordered
				for a := 1; a < eqSchemaWidth; a++ {
					tuple[a] = data.ValueLo + data.Value(rng.Int63n(int64(data.ValueHi-data.ValueLo)))
				}
				if err := rel.Append(tuple); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // segment-local reorg
			var nonEmpty []*storage.Segment
			for _, seg := range rel.Segments {
				if seg.Rows > 0 {
					nonEmpty = append(nonEmpty, seg)
				}
			}
			if len(nonEmpty) == 0 {
				continue
			}
			seg := nonEmpty[rng.Intn(len(nonEmpty))]
			attrs := query.RandomAttrs(eqSchemaWidth, 2+rng.Intn(2), rng.Intn)
			if _, ok := seg.ExactGroup(attrs); ok {
				continue
			}
			g, err := storage.StitchSeg(seg, attrs)
			if err != nil {
				t.Fatal(err)
			}
			if err := seg.AddGroup(g); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// deltaStrategies is the strategy input of the delta-repair harness: every
// strategy ExecDelta can run a repair under. The row strategy needs a
// single covering group per segment and is skipped (not failed) without
// one; the others accept every repairable shape, falling back to the
// generic pipeline where they have no operators for it.
var deltaStrategies = []struct {
	s        Strategy
	rowShape bool
}{
	{StrategyRow, true},
	{StrategyColumn, false},
	{StrategyHybrid, false},
	{StrategyEncoded, false},
	{StrategyGeneric, false},
}

// TestDeltaRepairEquivalence extends the harness to the partial-result
// layer: every randomized query that classifies as repairable has its
// partials cached, the relation is mutated by random appends and
// segment-local reorgs, and the query is then answered via cached partials
// plus a delta rescan of only the changed candidates, under every strategy
// of deltaStrategies — each repaired result must equal a fresh full scan
// of the mutated state, and the rescan set must be disjoint from the
// version-matched reuse set.
func TestDeltaRepairEquivalence(t *testing.T) {
	const (
		relations       = 8
		queriesPerRel   = 10
		mutationsPerRel = 4
	)
	rng := rand.New(rand.NewSource(20260730))
	for r := 0; r < relations; r++ {
		rel := eqRelation(t, rng)
		installSnapshotLoader(rel)

		// Collect repairable randomized queries (aggregate and grouped
		// shapes without limits) and seed their partials. The first few
		// slots insist on GROUP BY so grouped delta repair is exercised in
		// every relation's batch regardless of the draw.
		type seeded struct {
			q     *query.Query
			prior *PartialResult
		}
		var qs []seeded
		for len(qs) < queriesPerRel {
			q := eqQuery(rng, rel.Rows)
			if len(qs) < 3 && len(q.GroupBy) == 0 {
				continue
			}
			if !Repairable(q) {
				continue
			}
			prior, _, err := ExecDelta(rel, q, nil, ExecOpts{Strategy: StrategyGeneric})
			if err != nil {
				t.Fatalf("seed %s: %v", q, err)
			}
			qs = append(qs, seeded{q, prior})
		}

		for m := 0; m < mutationsPerRel; m++ {
			eqMutate(t, rng, rel)
			for i := range qs {
				q, prior := qs[i].q, qs[i].prior
				have := prior.Versions()
				want, err := Exec(rel, q, ExecOpts{Strategy: StrategyGeneric})
				if err != nil {
					t.Fatal(err)
				}
				// Random worker counts: serial and fanned-out rescans must
				// produce identical partials. One draw per query keeps the
				// mutation schedule on its original stream; the strategies
				// rotate through the counts from there.
				w := rng.Intn(4)
				for k, ds := range deltaStrategies {
					// Demote a slice of the sealed segments so each strategy
					// repairs over a mix of flat and encoded-resident
					// candidates (the previous one rehydrated what it read).
					demoteFraction(rel, 0.5)
					if ds.rowShape && !RowCovered(rel, q) {
						continue
					}
					workers := 1 + (w+k)%4
					fresh, reused, err := ExecDelta(rel, q, have, ExecOpts{Strategy: ds.s, Workers: workers})
					if err != nil {
						t.Fatalf("delta %s under %v: %v", q, ds.s, err)
					}
					for _, si := range reused {
						if v := rel.Segments[si].Version(); v != have[si] {
							t.Fatalf("%s under %v: reused segment %d at version %d, cached %d", q, ds.s, si, v, have[si])
						}
					}
					for si := range fresh.Segs {
						if hv, ok := have[si]; ok && hv == rel.Segments[si].Version() {
							t.Fatalf("%s under %v: rescanned segment %d whose version never moved", q, ds.s, si)
						}
					}
					repaired := Repaired(prior, fresh, reused)
					if got := repaired.Result(); !got.Equal(want) {
						t.Fatalf("repair under %v (workers %d) diverged on %s after mutation %d:\n got %v\nwant %v",
							ds.s, workers, q, m, got.Data, want.Data)
					}
					// The repaired payload becomes the next round's cache, just
					// as the serving layer republishes it: the next round
					// repairs over partials another strategy produced.
					qs[i].prior = repaired
				}
			}
		}
	}
}

// BenchmarkEquivalenceHarness times one fixed-seed harness pass (one
// relation, a query batch, every strategy, 50% residency). It rides in the
// CI bench.json artifact so the perf trajectory catches a harness blowup —
// the harness guards every exec PR, so its own cost must stay visible.
func BenchmarkEquivalenceHarness(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rel := eqRelation(b, rng)
	installSnapshotLoader(rel)
	queries := make([]*query.Query, 12)
	for i := range queries {
		queries[i] = eqQuery(rng, rel.Rows)
	}
	strategies := eqStrategies(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			for _, s := range strategies {
				unloadFraction(rel, 0.5)
				if s.rowShape && !RowCovered(rel, q) {
					continue
				}
				if _, err := s.run(rel, q); err != nil && err != ErrUnsupported {
					b.Fatal(err)
				}
			}
		}
	}
}
