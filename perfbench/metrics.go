package main

import (
	"fmt"
	"runtime"
	"time"

	"h2o"
	"h2o/internal/server"
)

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// The metrics the last line's JSON carries, in BENCHMARK.json's order:
// endToEnd with tracing off, perLayer with it on. Every workload reports
// every one of them. Figures that exist on some workloads only (insert
// latencies, cache-hit and join timings, spill-file size) are printed in the
// human-readable report above the JSON line.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"select_p50_ms", "ms"},
	{"select_p99_ms", "ms"},
	{"heap_mb", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"sql.parse_select_us_p50", "us"},
	{"server.hit_ratio", "ratio"},
	{"server.memo_hit_ratio", "ratio"},
	{"server.delta_reuse_ratio", "ratio"},
	{"server.repaired_segments_per_repair", "count"},
	{"server.republish_ratio", "ratio"},
	{"server.self_us_p50", "us"},
	{"server.queue_wait_us_p50", "us"},
	{"server.queue_wait_us_p99", "us"},
	{"core.fingerprint_us_p50", "us"},
	{"core.fingerprint_calls_per_select", "count"},
	{"core.exec_ms_p50", "ms"},
	{"core.delta_ms_p50", "ms"},
	{"core.delta_ms_p99", "ms"},
	{"core.delta_declined_ratio", "ratio"},
	{"core.insert_us_p50", "us"},
	{"core.reorgs_per_kop", "count"},
	{"core.segments_reorganized_per_reorg", "count"},
	{"core.adaptations_per_kop", "count"},
	{"opgen.cache_hit_ratio", "ratio"},
	{"opgen.generic_fallback_ratio", "ratio"},
	{"exec.segments_scanned_per_exec", "count"},
	{"exec.prune_ratio", "ratio"},
	{"exec.decode_skips_per_exec", "count"},
	{"exec.encoded_kb_per_exec", "KiB"},
	{"tier.faults_per_select", "count"},
	{"tier.faulted_mb_per_select", "MiB"},
	{"tier.evictions_per_kop", "count"},
	{"tier.demotions_per_kop", "count"},
	{"tier.spill_writes_per_kop", "count"},
	{"tier.resident_mb", "MiB"},
	{"tier.encoded_mb", "MiB"},
	{"tier.spill_compression", "ratio"},
	{"tier.disk_mb", "MiB"},
	{"go.alloc_kb_per_op", "KiB"},
	{"go.gc_cycles_per_kop", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// reportOnly are the units of the figures printed only in the
// human-readable report.
var reportOnly = map[string]string{
	"insert_p50_ms": "ms", "insert_p99_ms": "ms", "fail_ratio": "ratio", "disk_mb": "MiB",
	"sql.parse_insert_us_p50": "us", "server.hit_us_p50": "us", "server.hit_us_p99": "us",
	"core.insert_us_p99": "us", "core.exec_ms_p99": "ms",
	"exec.join_ms_p50": "ms", "exec.join_ms_p99": "ms",
}

func unitOf(name string) string {
	for _, list := range [][]struct{ name, unit string }{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return reportOnly[name]
}

// sheet collects a run's figures. Percentiles are taken by the percentile
// rule; a refused one is noted, and is an error if the metric is declared.
type sheet struct {
	vals  map[string]float64
	notes []string
}

func newSheet() *sheet { return &sheet{vals: map[string]float64{}} }

func (s *sheet) set(name string, v float64) { s.vals[name] = v }

// pct records the p-th percentile of samples under name, or notes why not.
func (s *sheet) pct(name string, samples []float64, p float64) {
	if len(samples) == 0 {
		s.notes = append(s.notes, fmt.Sprintf("%s: no samples (the workload does not exercise this path)", name))
		return
	}
	v, err := percentile(samples, p)
	if err != nil {
		s.notes = append(s.notes, fmt.Sprintf("%s: refused, %v", name, err))
		return
	}
	s.set(name, v)
}

// declared returns the listed metrics with their values; a declared metric
// the run did not produce is an error.
func (s *sheet) declared(list []struct{ name, unit string }) ([]metric, error) {
	out := make([]metric, 0, len(list))
	for _, d := range list {
		v, ok := s.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced (see the notes above)", d.name)
		}
		out = append(out, metric{d.name, d.unit, v})
	}
	return out, nil
}

// endToEndSheet computes the user-visible figures of one measured phase,
// all but heap_mb, which the caller reads once the phase's samples are
// dropped.
func endToEndSheet(p phase, setups []time.Duration, sys *system) *sheet {
	s := newSheet()
	s.set("setup_s", median(durations(setups, time.Second)))
	s.set("ops_per_s", rate(p))
	sel := durations(p.sel, time.Millisecond)
	s.pct("select_p50_ms", sel, 0.50)
	s.pct("select_p99_ms", sel, 0.99)
	ins := durations(p.ins, time.Millisecond)
	s.pct("insert_p50_ms", ins, 0.50)
	s.pct("insert_p99_ms", ins, 0.99)
	s.set("fail_ratio", ratio(float64(p.failed), float64(p.attempted)))
	if sys.spill != "" {
		s.set("disk_mb", float64(spillBytes(sys.spill))/(1<<20))
	}
	return s
}

// counters is a snapshot of every counter the layers expose.
type counters struct {
	serve server.Stats
	eng   h2o.Stats
	tier  h2o.TierStats
	alloc uint64
	numGC uint32
}

func snapshot(sys *system) (counters, error) {
	var c counters
	if sys.srv != nil {
		c.serve = sys.srv.Stats()
	}
	for name := range sys.data {
		var st h2o.Stats
		if r, err := sys.db.Router(name); err == nil {
			st = r.Stats()
		} else if e, err := sys.db.Engine(name); err == nil {
			st = e.Stats()
		}
		c.eng.Queries += st.Queries
		c.eng.Adaptations += st.Adaptations
		c.eng.Reorgs += st.Reorgs
		c.eng.OpCacheHits += st.OpCacheHits
		c.eng.OpCacheMisses += st.OpCacheMisses
		c.eng.GenericFallback += st.GenericFallback
		ts, err := sys.db.TierStats(name)
		if err != nil {
			return c, err
		}
		c.tier.ResidentBytes += ts.ResidentBytes
		c.tier.EncodedBytes += ts.EncodedBytes
		c.tier.SpilledBytes += ts.SpilledBytes
		c.tier.SpillFileBytes += ts.SpillFileBytes
		c.tier.Faults += ts.Faults
		c.tier.FaultedBytes += ts.FaultedBytes
		c.tier.Evictions += ts.Evictions
		c.tier.Demotions += ts.Demotions
		c.tier.SpillWrites += ts.SpillWrites
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.numGC = ms.TotalAlloc, ms.NumGC
	return c, nil
}

// layerSheet computes the per-layer figures of a traced phase from its
// spans and the counter deltas over it. ops is the operations attempted;
// every ratio's base is named where it is computed.
func layerSheet(sps []span, before, after counters, ops int, sys *system) *sheet {
	s := newSheet()
	self := selfTimes(sps)
	kids := children(sps)
	var (
		parseSel, parseIns, hit, selfQ, wait []float64
		fp, execAll, join, delta, insert     []float64
		selects, deltas, declined, execs     int
		reorgs, reorgSegs                    int
		scanned, pruned, skips               int
		encoded                              int64
	)
	for i := range sps {
		sp := &sps[i]
		us := float64(sp.dur()) / float64(time.Microsecond)
		ms := float64(sp.dur()) / float64(time.Millisecond)
		switch sp.kind {
		case spanParse:
			parseSel = append(parseSel, us)
		case spanParseInsert:
			parseIns = append(parseIns, us)
		case spanInsert:
			insert = append(insert, us)
		case spanFingerprint:
			fp = append(fp, us)
		case spanQuery:
			selects++
			selfQ = append(selfQ, float64(self[i])/float64(time.Microsecond))
			if sp.hit {
				hit = append(hit, us)
			} else if w, ok := queueWait(sps, int32(i), kids[int32(i)]); ok {
				wait = append(wait, float64(w)/float64(time.Microsecond))
			}
		case spanExec:
			execAll = append(execAll, ms)
			if sp.join {
				join = append(join, ms)
			}
			if sp.reorg {
				reorgs++
				reorgSegs += int(sp.reorgs)
			}
		case spanDelta:
			deltas++
			delta = append(delta, ms)
			if !sp.ok {
				declined++
				continue
			}
		}
		if sp.kind == spanExec || sp.kind == spanDelta {
			execs++
			scanned += int(sp.scanned)
			pruned += int(sp.pruned)
			skips += int(sp.skips)
			encoded += sp.encoded
		}
	}
	kop := float64(ops) / 1000
	d := func(a, b uint64) float64 { return float64(a - b) }

	s.pct("sql.parse_select_us_p50", parseSel, 0.50)
	s.pct("sql.parse_insert_us_p50", parseIns, 0.50)

	sv, sv0 := after.serve, before.serve
	submitted := d(sv.Submitted, sv0.Submitted)
	s.set("server.hit_ratio", ratio(d(sv.CacheHits, sv0.CacheHits), submitted))
	s.set("server.memo_hit_ratio", ratio(d(sv.MemoHits, sv0.MemoHits), submitted))
	repaired := d(sv.Repaired, sv0.Repaired)
	s.set("server.delta_reuse_ratio", ratio(repaired, float64(deltas)))
	s.set("server.repaired_segments_per_repair", ratio(d(sv.RepairedSegments, sv0.RepairedSegments), repaired))
	s.set("server.republish_ratio", ratio(d(sv.Republished, sv0.Republished), d(sv.Executed, sv0.Executed)))
	s.pct("server.hit_us_p50", hit, 0.50)
	s.pct("server.hit_us_p99", hit, 0.99)
	s.pct("server.self_us_p50", selfQ, 0.50)
	s.pct("server.queue_wait_us_p50", wait, 0.50)
	s.pct("server.queue_wait_us_p99", wait, 0.99)

	s.pct("core.fingerprint_us_p50", fp, 0.50)
	s.set("core.fingerprint_calls_per_select", ratio(float64(len(fp)), float64(selects)))
	s.pct("core.exec_ms_p50", execAll, 0.50)
	s.pct("core.exec_ms_p99", execAll, 0.99)
	s.pct("core.delta_ms_p50", delta, 0.50)
	s.pct("core.delta_ms_p99", delta, 0.99)
	s.set("core.delta_declined_ratio", ratio(float64(declined), float64(deltas)))
	if len(insert) == 0 {
		// Declared for every workload; one that never inserts reads 0, as
		// a ratio over an empty base does.
		s.set("core.insert_us_p50", 0)
	} else {
		s.pct("core.insert_us_p50", insert, 0.50)
	}
	s.pct("core.insert_us_p99", insert, 0.99)
	e, e0 := after.eng, before.eng
	s.set("core.reorgs_per_kop", ratio(float64(e.Reorgs-e0.Reorgs), kop))
	s.set("core.segments_reorganized_per_reorg", ratio(float64(reorgSegs), float64(reorgs)))
	s.set("core.adaptations_per_kop", ratio(float64(e.Adaptations-e0.Adaptations), kop))

	opHits := float64(e.OpCacheHits - e0.OpCacheHits)
	s.set("opgen.cache_hit_ratio", ratio(opHits, opHits+float64(e.OpCacheMisses-e0.OpCacheMisses)))
	s.set("opgen.generic_fallback_ratio", ratio(float64(e.GenericFallback-e0.GenericFallback), float64(e.Queries-e0.Queries)))

	s.set("exec.segments_scanned_per_exec", ratio(float64(scanned), float64(execs)))
	s.set("exec.prune_ratio", ratio(float64(pruned), float64(scanned+pruned)))
	s.pct("exec.join_ms_p50", join, 0.50)
	s.pct("exec.join_ms_p99", join, 0.99)
	s.set("exec.decode_skips_per_exec", ratio(float64(skips), float64(execs)))
	s.set("exec.encoded_kb_per_exec", ratio(float64(encoded)/1024, float64(execs)))

	t, t0 := after.tier, before.tier
	s.set("tier.faults_per_select", ratio(d(t.Faults, t0.Faults), float64(selects)))
	s.set("tier.faulted_mb_per_select", ratio(d(t.FaultedBytes, t0.FaultedBytes)/(1<<20), float64(selects)))
	s.set("tier.evictions_per_kop", ratio(d(t.Evictions, t0.Evictions), kop))
	s.set("tier.demotions_per_kop", ratio(d(t.Demotions, t0.Demotions), kop))
	s.set("tier.spill_writes_per_kop", ratio(d(t.SpillWrites, t0.SpillWrites), kop))
	s.set("tier.resident_mb", float64(t.ResidentBytes)/(1<<20))
	s.set("tier.encoded_mb", float64(t.EncodedBytes)/(1<<20))
	s.set("tier.spill_compression", ratio(float64(t.SpilledBytes), float64(t.SpillFileBytes)))
	s.set("tier.disk_mb", float64(spillBytes(sys.spill))/(1<<20))

	s.set("go.alloc_kb_per_op", ratio(d(after.alloc, before.alloc)/1024, float64(ops)))
	s.set("go.gc_cycles_per_kop", ratio(float64(after.numGC-before.numGC), kop))
	return s
}

// children indexes spans by parent.
func children(sps []span) map[int32][]int32 {
	kids := make(map[int32][]int32)
	for i := range sps {
		if p := sps[i].parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	return kids
}

// queueWait is the gap between the end of a missed query's admission — its
// server.Query start, or the end of the admission-side Fingerprint call
// when there is one — and the start of the first backend call a worker
// made for it. ok is false when no worker call was recorded.
func queueWait(sps []span, q int32, kids []int32) (time.Duration, bool) {
	admitted := sps[q].start
	var first int64
	found := false
	for _, k := range kids {
		c := &sps[k]
		switch c.kind {
		case spanFingerprint:
			if c.end > admitted {
				admitted = c.end
			}
		case spanExec, spanDelta:
			if !found || c.start < first {
				first, found = c.start, true
			}
		}
	}
	if !found {
		return 0, false
	}
	return time.Duration(first - admitted), true
}
