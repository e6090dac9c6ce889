package main

import (
	"context"
	"fmt"
	"sync/atomic"

	"h2o"
	"h2o/internal/core"
	"h2o/internal/server"
	"h2o/internal/sql"
)

// tracedExec is the traced run's path. It performs the same calls
// DB.QueryCtx makes — DB.Parse then the serving layer's Query for a select,
// sql.ParseInsert then the table's Insert for an insert — with a span
// around each, over a server built exactly as the facade builds its
// default one, but on a backend that records the server's calls into the
// catalog.
type tracedExec struct {
	db      *h2o.DB
	tr      *tracer
	be      *tracedBackend
	srv     *server.Server
	schemas sql.SchemaMap
	ins     map[string]inserter
	nextReq atomic.Int32
}

func newTracedExec(db *h2o.DB, opts h2o.Options, schemas sql.SchemaMap) (*tracedExec, error) {
	tr := newTracer()
	x := &tracedExec{db: db, tr: tr, be: newTracedBackend(db, tr), schemas: schemas, ins: map[string]inserter{}}
	// The same Config DB.QueryCtx's default server gets.
	x.srv = server.New(x.be, server.Config{PartialCacheBytes: opts.PartialCacheBytes})
	for name := range schemas {
		var h interface {
			inserter
			SetSegmentHeat(core.SegmentHeatFunc)
		}
		var err error
		if opts.Shards > 1 {
			h, err = db.Router(name)
		} else {
			h, err = db.Engine(name)
		}
		if err != nil {
			x.srv.Close()
			return nil, err
		}
		// Cache-aware eviction, wired as the facade's wireSegmentHeat does.
		name := name
		h.SetSegmentHeat(func() map[int]int { return x.srv.SegmentHeat(name) })
		x.ins[name] = h
	}
	return x, nil
}

func (x *tracedExec) run(o *op) (*h2o.Result, error) {
	req := x.nextReq.Add(1)
	tr := x.tr
	start := tr.now()
	var kids []int32
	var res *h2o.Result
	var err error
	if o.spec == nil {
		p := span{kind: spanParseInsert, req: req, start: start}
		stmt, perr := sql.ParseInsert(o.sql, x.schemas)
		p.end = tr.now()
		kids = append(kids, tr.add(p))
		err = perr
		if err == nil {
			h, ok := x.ins[stmt.Table]
			if !ok {
				err = fmt.Errorf("unknown table %q", stmt.Table)
			} else {
				s := span{kind: spanInsert, req: req, start: tr.now()}
				err = h.Insert(stmt.Rows)
				s.end = tr.now()
				kids = append(kids, tr.add(s))
			}
		}
	} else {
		p := span{kind: spanParse, req: req, start: start}
		q, perr := x.db.Parse(o.sql)
		p.end = tr.now()
		kids = append(kids, tr.add(p))
		err = perr
		if err == nil {
			l := &reqLink{req: req}
			x.be.link(q, l)
			s := span{kind: spanQuery, req: req, start: tr.now()}
			r, info, qerr := x.srv.Query(context.Background(), q)
			s.end = tr.now()
			x.be.unlink(q)
			res, err = r, qerr
			s.hit = info.CacheHit
			qid := tr.add(s)
			l.mu.Lock()
			for _, k := range l.kids {
				tr.setParent(k, qid)
			}
			l.mu.Unlock()
			kids = append(kids, qid)
		}
	}
	opID := tr.add(span{kind: spanOp, req: req, start: start, end: tr.now()})
	for _, k := range kids {
		tr.setParent(k, opID)
	}
	return res, err
}
