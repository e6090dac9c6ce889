package main

import (
	"fmt"
	"sort"
	"strings"
)

// The benchmark describes every select it issues as a selectSpec. The spec
// renders the SQL text the program under test receives, and the oracle
// evaluates the same spec with plain loops over the benchmark's own copy of
// the rows, so the reference never runs any of the engine's code.

// colRef addresses an attribute in a query's combined namespace: the FROM
// table's attribute i is i, a joined table's attribute j is leftWidth+j.
type colRef = int

// aggSpec is op(c1 + c2 + ...) over one or more columns.
type aggSpec struct {
	op   string // sum, count, max, min or avg
	cols []colRef
}

// condSpec is one comparison "col op v" of a conjunctive where clause.
type condSpec struct {
	col colRef
	op  string // <, <=, >, >=, =
	v   int64
}

// joinSpec is an equi-join of the FROM table with table on
// leftKey = table.rightKey (rightKey is the joined table's own position).
type joinSpec struct {
	table    string
	leftKey  int
	rightKey int
}

// selectSpec is one select statement: aggregates (optionally grouped by one
// key column) or a plain projection, over one table or a two-table join.
type selectSpec struct {
	table   string
	join    *joinSpec
	aggs    []aggSpec
	groupBy colRef   // -1 when ungrouped
	proj    []colRef // non-empty only for projections (no aggregates)
	where   []condSpec
}

// tableData is a column-major copy of a table's rows.
type tableData struct {
	name string
	cols [][]int64
}

func (t *tableData) width() int { return len(t.cols) }
func (t *tableData) rows() int  { return len(t.cols[0]) }

// appendRows appends row-major tuples.
func (t *tableData) appendRows(rows [][]int64) {
	for _, r := range rows {
		for a, v := range r {
			t.cols[a] = append(t.cols[a], v)
		}
	}
}

// bytes is the heap footprint of the copy's column slices.
func (t *tableData) bytes() int64 {
	var n int64
	for _, c := range t.cols {
		n += int64(cap(c)) * 8
	}
	return n
}

// sql renders the spec as SQL text. leftWidth is the FROM table's width,
// needed to name a joined table's columns.
func (s *selectSpec) sql(leftWidth int) string {
	name := func(c colRef) string {
		if s.join != nil && c >= leftWidth {
			return fmt.Sprintf("%s.a%d", s.join.table, c-leftWidth)
		}
		return fmt.Sprintf("a%d", c)
	}
	var items []string
	if s.groupBy >= 0 {
		items = append(items, name(s.groupBy))
	}
	for _, a := range s.aggs {
		args := make([]string, len(a.cols))
		for i, c := range a.cols {
			args[i] = name(c)
		}
		items = append(items, a.op+"("+strings.Join(args, " + ")+")")
	}
	for _, c := range s.proj {
		items = append(items, name(c))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "select %s from %s", strings.Join(items, ", "), s.table)
	if j := s.join; j != nil {
		fmt.Fprintf(&b, " join %s on a%d = %s.a%d", j.table, j.leftKey, j.table, j.rightKey)
	}
	for i, c := range s.where {
		if i == 0 {
			b.WriteString(" where ")
		} else {
			b.WriteString(" and ")
		}
		fmt.Fprintf(&b, "%s %s %d", name(c.col), c.op, c.v)
	}
	if s.groupBy >= 0 {
		fmt.Fprintf(&b, " group by %s", name(s.groupBy))
	}
	return b.String()
}

// accum mirrors the engine's aggregate semantics: sum and avg wrap like
// int64 addition, avg truncates toward zero and reads 0 over no rows, and
// max/min over no rows read 0.
type accum struct {
	op    string
	acc   int64
	count int64
}

func (a *accum) add(v int64) {
	switch a.op {
	case "sum", "avg":
		a.acc += v
	case "max":
		if a.count == 0 || v > a.acc {
			a.acc = v
		}
	case "min":
		if a.count == 0 || v < a.acc {
			a.acc = v
		}
	}
	a.count++
}

func (a *accum) result() int64 {
	switch a.op {
	case "count":
		return a.count
	case "avg":
		if a.count == 0 {
			return 0
		}
		return a.acc / a.count
	}
	return a.acc
}

func holds(v int64, op string, c int64) bool {
	switch op {
	case "<":
		return v < c
	case "<=":
		return v <= c
	case ">":
		return v > c
	case ">=":
		return v >= c
	case "=":
		return v == c
	}
	panic("perfbench: unknown comparison " + op)
}

// reference computes the spec's expected result as row-major rows: one row
// for an ungrouped aggregate, one row per non-empty group in ascending key
// order for a grouped one, and the matching rows sorted for a projection.
// right is the joined table (nil without a join).
func reference(s *selectSpec, left, right *tableData) [][]int64 {
	lw := left.width()
	// byKey maps a join key to the right rows holding it; without a join
	// every left row stands alone.
	var byKey map[int64][]int
	if s.join != nil {
		byKey = make(map[int64][]int)
		for r, k := range right.cols[s.join.rightKey] {
			byKey[k] = append(byKey[k], r)
		}
	}
	get := func(c colRef, l, r int) int64 {
		if c >= lw {
			return right.cols[c-lw][r]
		}
		return left.cols[c][l]
	}
	newAccs := func() []accum {
		accs := make([]accum, len(s.aggs))
		for i, a := range s.aggs {
			accs[i].op = a.op
		}
		return accs
	}
	total := newAccs()
	groups := map[int64][]accum{}
	var proj [][]int64
	visit := func(l, r int) {
		for _, c := range s.where {
			if !holds(get(c.col, l, r), c.op, c.v) {
				return
			}
		}
		if len(s.proj) > 0 {
			row := make([]int64, len(s.proj))
			for i, c := range s.proj {
				row[i] = get(c, l, r)
			}
			proj = append(proj, row)
			return
		}
		accs := total
		if s.groupBy >= 0 {
			k := get(s.groupBy, l, r)
			if groups[k] == nil {
				groups[k] = newAccs()
			}
			accs = groups[k]
		}
		for i, a := range s.aggs {
			var v int64
			for _, c := range a.cols {
				v += get(c, l, r)
			}
			accs[i].add(v)
		}
	}
	for l := 0; l < left.rows(); l++ {
		if byKey == nil {
			visit(l, -1)
			continue
		}
		for _, r := range byKey[left.cols[s.join.leftKey][l]] {
			visit(l, r)
		}
	}
	results := func(k *int64, accs []accum) []int64 {
		var row []int64
		if k != nil {
			row = append(row, *k)
		}
		for i := range accs {
			row = append(row, accs[i].result())
		}
		return row
	}
	switch {
	case len(s.proj) > 0:
		sortRows(proj)
		return proj
	case s.groupBy >= 0:
		keys := make([]int64, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out := make([][]int64, len(keys))
		for i := range keys {
			out[i] = results(&keys[i], groups[keys[i]])
		}
		return out
	default:
		return [][]int64{results(nil, total)}
	}
}

func sortRows(rows [][]int64) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// sameResult compares an engine result (row-major data, width columns) with
// the reference rows. Projections compare as multisets: the engine returns
// them in storage order, which concurrent inserts may interleave.
func sameResult(s *selectSpec, width, nrows int, data []int64, want [][]int64) error {
	got := make([][]int64, nrows)
	for i := range got {
		got[i] = data[i*width : (i+1)*width]
	}
	if len(s.proj) > 0 {
		got = append([][]int64(nil), got...)
		sortRows(got)
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Errorf("row %d column %d is %d, want %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}
