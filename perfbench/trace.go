package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"h2o"
	"h2o/internal/core"
	"h2o/internal/exec"
	"h2o/internal/query"
	"h2o/internal/server"
)

// spanKind names the layer boundary a span was recorded around.
type spanKind uint8

const (
	spanOp          spanKind = iota // one benchmark operation, SQL text to result
	spanParse                       // DB.Parse
	spanParseInsert                 // sql.ParseInsert
	spanQuery                       // server.Server.Query
	spanFingerprint                 // Backend.Fingerprint
	spanExec                        // Backend.Exec
	spanDelta                       // DeltaBackend.ExecDelta
	spanInsert                      // Engine.Insert / Router.Insert
)

var spanNames = [...]string{"op", "DB.Parse", "sql.ParseInsert", "server.Query",
	"Backend.Fingerprint", "Backend.Exec", "DeltaBackend.ExecDelta", "Insert"}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call. start and end are nanoseconds since the tracer's
// base; parent is the index of the causing span (-1 for an operation). The
// remaining fields carry what the call reported, for the per-layer counts.
type span struct {
	kind       spanKind
	req        int32 // request id: the operation this span belongs to
	parent     int32
	start, end int64

	hit    bool // server.Query answered from the result cache
	ok     bool // ExecDelta accepted (false: declined to full Exec)
	join   bool // Exec of a join query
	reorg  bool // Exec piggybacked a reorganization
	reorgs int32
	// Scan counters from ExecInfo (Exec) or DeltaScan.Stats (ExecDelta).
	scanned, pruned, faulted, skips int32
	encoded                         int64
}

func (s *span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	on   bool
	sps  []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), sps: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a finished span, without a parent yet, and returns its index
// (-1 while recording is off: during warm-up and the correctness check).
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	s.parent = -1
	t.sps = append(t.sps, s)
	return int32(len(t.sps) - 1)
}

// setParent links a recorded child to a parent recorded after it: a parent
// span ends, and is recorded, after its children.
func (t *tracer) setParent(child, parent int32) {
	if child < 0 || parent < 0 {
		return
	}
	t.mu.Lock()
	t.sps[child].parent = parent
	t.mu.Unlock()
}

func (t *tracer) setRecording(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// spans returns the recorded spans; call once the run has quiesced.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sps
}

// write dumps the spans as CSV, one per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,req,parent,name,start_ns,end_ns,hit,ok,join,scanned,pruned,faulted")
	for i, s := range t.spans() {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%t,%t,%t,%d,%d,%d\n", i, s.req, s.parent, s.kind,
			s.start, s.end, s.hit, s.ok, s.join, s.scanned, s.pruned, s.faulted)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by the union of its children's intervals. Children may run on
// other goroutines and overlap each other or stick out of the parent; only
// the covered part of the parent's own interval counts.
func selfTimes(sps []span) []time.Duration {
	kids := children(sps)
	out := make([]time.Duration, len(sps))
	for i := range sps {
		out[i] = sps[i].dur() - covered(sps, int32(i), kids[int32(i)])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(sps []span, parent int32, children []int32) time.Duration {
	if len(children) == 0 {
		return 0
	}
	lo, hi := sps[parent].start, sps[parent].end
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := sps[c].start, sps[c].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB int64
	first := true
	for _, v := range ivs {
		switch {
		case first:
			curA, curB, first = v.a, v.b, false
		case v.a > curB:
			sum += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if !first {
		sum += curB - curA
	}
	return time.Duration(sum)
}

// reqLink is what a backend call needs to attach its span to the request
// that caused it.
type reqLink struct {
	req int32
	// kids collects the backend spans recorded for the request; the
	// server.Query span is recorded after them and adopts them.
	mu   sync.Mutex
	kids []int32
}

// tracedBackend wraps *h2o.DB as the serving layer's backend and records a
// span around every call the server makes into it. It implements all three
// backend capabilities, as *h2o.DB does: without DeltaBackend and
// VersionBackend the server would silently switch off delta repair and the
// fingerprint memo, and the traced run would measure a different program.
// Worker-side calls are tied to their request by the *query.Query pointer,
// which is unique per parsed statement.
type tracedBackend struct {
	db *h2o.DB
	tr *tracer

	mu    sync.RWMutex
	links map[*query.Query]*reqLink
}

var (
	_ server.Backend        = (*tracedBackend)(nil)
	_ server.DeltaBackend   = (*tracedBackend)(nil)
	_ server.VersionBackend = (*tracedBackend)(nil)
)

func newTracedBackend(db *h2o.DB, tr *tracer) *tracedBackend {
	return &tracedBackend{db: db, tr: tr, links: make(map[*query.Query]*reqLink)}
}

func (b *tracedBackend) link(q *query.Query, l *reqLink) {
	b.mu.Lock()
	b.links[q] = l
	b.mu.Unlock()
}

func (b *tracedBackend) unlink(q *query.Query) {
	b.mu.Lock()
	delete(b.links, q)
	b.mu.Unlock()
}

// record stores a backend span under the request that issued q.
func (b *tracedBackend) record(q *query.Query, s span) {
	b.mu.RLock()
	l := b.links[q]
	b.mu.RUnlock()
	if l != nil {
		s.req = l.req
	}
	if id := b.tr.add(s); id >= 0 && l != nil {
		l.mu.Lock()
		l.kids = append(l.kids, id)
		l.mu.Unlock()
	}
}

func (b *tracedBackend) Exec(q *query.Query) (*exec.Result, core.ExecInfo, error) {
	s := span{kind: spanExec, start: b.tr.now(), join: len(q.Joins) > 0}
	res, info, err := b.db.Exec(q)
	s.end = b.tr.now()
	s.reorg = info.Reorganized
	s.reorgs = int32(info.SegmentsReorganized)
	s.scanned, s.pruned, s.faulted = int32(info.SegmentsScanned), int32(info.SegmentsPruned), int32(info.SegmentsFaulted)
	s.skips, s.encoded = int32(info.DecodeSkips), info.EncodedBytes
	b.record(q, s)
	return res, info, err
}

func (b *tracedBackend) Fingerprint(q *query.Query) (core.TouchFingerprint, error) {
	s := span{kind: spanFingerprint, start: b.tr.now()}
	fp, err := b.db.Fingerprint(q)
	s.end = b.tr.now()
	b.record(q, s)
	return fp, err
}

func (b *tracedBackend) ExecDelta(q *query.Query, have map[int]uint64) (*core.DeltaScan, bool, error) {
	s := span{kind: spanDelta, start: b.tr.now()}
	ds, ok, err := b.db.ExecDelta(q, have)
	s.end = b.tr.now()
	s.ok = ok
	if ds != nil {
		st := ds.Stats
		s.scanned, s.pruned, s.faulted = int32(st.SegmentsScanned), int32(st.SegmentsPruned), int32(st.SegmentsFaulted)
		s.skips, s.encoded = int32(st.DecodeSkips), st.EncodedBytes
	}
	b.record(q, s)
	return ds, ok, err
}

// Version is an atomic read with no query to tie it to; it is passed
// through untimed, and its cost stays in server.Query's self time.
func (b *tracedBackend) Version(table string) (uint64, error) { return b.db.Version(table) }
