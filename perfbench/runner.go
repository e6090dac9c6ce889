package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"h2o"
	"h2o/internal/data"
	"h2o/internal/server"
	"h2o/internal/sql"
)

// clients is the closed loop's client count: each client sends one
// statement and waits for its reply before taking the next.
const clients = 2

// executor sends one SQL statement to the program under test, the way an
// embedding application does.
type executor interface {
	run(op *op) (*h2o.Result, error)
}

// system is one set-up of the program under test: the catalog, the
// benchmark's copy of its rows, and the executor the clients drive.
type system struct {
	db    *h2o.DB
	data  map[string]*tableData
	x     executor
	tr    *tracer        // nil in the untraced run
	srv   *server.Server // the traced run's server; nil otherwise
	spill string
	// warm is how long the warm-up took, the last part of set-up.
	warm time.Duration
}

// setup generates the tables, registers them and runs the warm-up prefix of
// the operation sequence. traced selects the traced executor.
func setup(w *workloadDef, traced bool) (*system, error) {
	opts := w.opts
	sys := &system{data: map[string]*tableData{}}
	if w.spill {
		dir, err := os.MkdirTemp(".", ".perfbench-spill-")
		if err != nil {
			return nil, fmt.Errorf("create spill directory: %w", err)
		}
		sys.spill = dir
		if abs, err := filepath.Abs(dir); err == nil {
			sys.spill = abs
		}
		opts.SpillDir = sys.spill
	}
	sys.db = h2o.NewDBWith(opts)
	schemas := sql.SchemaMap{}
	for _, td := range w.tables() {
		schema := h2o.SyntheticSchema(td.name, td.width())
		sys.db.AddTable(&h2o.Table{Schema: schema, Rows: td.rows(), Cols: td.cols})
		sys.data[td.name] = td
		schemas[td.name] = schema
	}
	if traced {
		tx, err := newTracedExec(sys.db, opts, schemas)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.x, sys.tr, sys.srv = tx, tx.tr, tx.srv
	} else {
		sys.x = plainExec{db: sys.db}
	}
	// One client replays the warm-up, so the engine sees it in the same
	// order on every run and every run starts from the same adapted layout
	// and residency; two interleaved clients would let the order, and the
	// layout the adaptation settles on, differ from run to run.
	t0 := time.Now()
	warm := runOps(sys.x, w, 0, w.warmup, time.Time{}, 1)
	sys.warm = time.Since(t0)
	if warm.failed > 0 {
		sys.close()
		return nil, fmt.Errorf("warm-up: %d of %d operations failed, first: %s", warm.failed, warm.attempted, warm.firstErr)
	}
	sys.applyInserts(w.ops, warm)
	return sys, nil
}

// applyInserts appends the rows of every insert the phase applied to the
// benchmark's copy, so the oracle sees exactly what the program stored.
func (s *system) applyInserts(ops []op, p phase) {
	for _, i := range p.inserted {
		s.data[ops[i].table].appendRows(ops[i].rows)
	}
}

func (s *system) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.db.Close()
	if s.spill != "" {
		os.RemoveAll(s.spill)
	}
}

// plainExec is the untraced path: every statement goes through
// DB.QueryCtx, the facade's serving entry point.
type plainExec struct{ db *h2o.DB }

func (p plainExec) run(o *op) (*h2o.Result, error) {
	res, _, err := p.db.QueryCtx(context.Background(), o.sql)
	return res, err
}

// phase is what one stretch of the closed loop observed.
type phase struct {
	elapsed   time.Duration
	attempted int
	failed    int
	firstErr  string
	sel, ins  []time.Duration
	// inserted lists the insert operations that succeeded, as indices
	// into the workload's ops.
	inserted []int
	// exhausted is set when the sequence ran out before the deadline.
	exhausted bool
}

// runOps drives w.seq[from:to] through x with n closed-loop clients,
// sharing one cursor so the statement order is the same on every run. With
// a non-zero deadline, clients stop taking operations once it passes.
func runOps(x executor, w *workloadDef, from, to int, deadline time.Time, n int) phase {
	var cursor atomic.Int64
	cursor.Store(int64(from))
	parts := make([]phase, n)
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(n)
	for c := 0; c < n; c++ {
		p := &parts[c]
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(cursor.Add(1) - 1)
				if i >= to {
					p.exhausted = !deadline.IsZero()
					return
				}
				o := &w.ops[w.seq[i]]
				t0 := time.Now()
				_, err := x.run(o)
				d := time.Since(t0)
				p.attempted++
				switch {
				case err != nil:
					p.failed++
					if p.firstErr == "" {
						p.firstErr = fmt.Sprintf("op %d (%.80s): %v", i, o.sql, err)
					}
				case o.spec == nil:
					p.ins = append(p.ins, d)
					p.inserted = append(p.inserted, int(w.seq[i]))
				default:
					p.sel = append(p.sel, d)
				}
			}
		}()
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstErr == "" {
			out.firstErr = p.firstErr
		}
		out.sel = append(out.sel, p.sel...)
		out.ins = append(out.ins, p.ins...)
		out.inserted = append(out.inserted, p.inserted...)
		out.exhausted = out.exhausted || p.exhausted
	}
	return out
}

// check re-issues the workload's fixed sample of templates and compares
// every answer with the oracle's. It returns the first mismatch.
func check(sys *system, w *workloadDef) error {
	for _, s := range w.checks {
		o := selectOp(s, sys.data[s.table].width())
		res, err := sys.x.run(&o)
		if err != nil {
			return fmt.Errorf("check %q: %w", o.sql, err)
		}
		var right *tableData
		if s.join != nil {
			right = sys.data[s.join.table]
		}
		want := reference(s, sys.data[s.table], right)
		if err := sameResult(s, len(res.Cols), res.Rows, res.Data, want); err != nil {
			return fmt.Errorf("check %q: %v", o.sql, err)
		}
	}
	return nil
}

// rate is the phase's completed operations per second: every stall inside
// the phase, the program's own included, lowers it.
func rate(p phase) float64 {
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

// liveHeap reads HeapInuse after a collection. The second collection frees
// what the first moved to sync.Pool victim caches.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// systemHeapMB is the live heap the system under test holds, in MiB: the
// reading now, minus base (taken before the first set-up, when the heap held
// only the benchmark's operation sequence) and minus the benchmark's own
// copy of the rows.
func systemHeapMB(sys *system, base int64) float64 {
	own := int64(0)
	for _, td := range sys.data {
		own += td.bytes()
	}
	return float64(liveHeap()-base-own) / (1 << 20)
}

// spillBytes sums the sizes of the files in the spill directory.
func spillBytes(dir string) int64 {
	var n int64
	if dir == "" {
		return 0
	}
	// The callback never fails, so neither does the walk.
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// inserter is the single-table insert surface shared by core.Engine and
// shard.Router.
type inserter interface {
	Insert(tuples [][]data.Value) error
}
