// Command perfbench is the repository's end-to-end benchmark. It drives the
// public facade h2o.DB from one process with a closed loop of two clients,
// each sending one SQL statement and waiting for its reply before sending
// the next, over one of three workloads:
//
//	dashboard  repeated panel queries plus trickle inserts (result cache,
//	           delta repair, fingerprint memo, tail inserts)
//	adhoc      the paper's SkyServer-shaped stream plus equi-joins
//	           (adaptation, reorganization, operator generation)
//	tiered     batch ingest and lookback over a sharded table larger than
//	           its memory budget (encoded tier, spill and fault, gather)
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 25 --trace 0
//
// It prints a human-readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones from a traced run.
// A wrong answer prints correct=false and exits 1.
//
//	bash perfbench/run.sh compare DIR_A [DIR_B]
//
// is the steadiness check: see compare.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times an untraced run sets the system up; setup_s is
// their median.
const setups = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload: dashboard, adhoc or tiered")
		seed    = flag.Int64("seed", 1, "seed of the tables and the operation sequence")
		seconds = flag.Int("seconds", 10, "length of the measured phase, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := defineWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	measure := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		// The spans go next to the build, which run.sh keeps in
		// $CARGO_TARGET_DIR.
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		res, err = tracedRun(w, measure, filepath.Join(dir, "spans-"+w.name+".csv"))
	} else {
		res, err = plainRun(w, measure)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res.print(os.Stdout)
	if !res.correct {
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	workload  string
	correct   bool
	checkErr  error
	attempted int
	failed    int
	firstErr  string
	all       *sheet   // every figure the run produced
	metrics   []metric // the declared ones, for the JSON line
	exhausted bool
}

// plainRun is the untraced end-to-end run: set up several times, measure
// through DB.QueryCtx, check.
func plainRun(w *workloadDef, measure time.Duration) (*result, error) {
	base := liveHeap()
	var sys *system
	var took, warm []time.Duration
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.close()
		}
		// Collect what earlier set-ups left behind before the clock starts,
		// so no set-up pays for another's garbage.
		runtime.GC()
		t0 := time.Now()
		s, err := setup(w, false)
		if err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0))
		warm = append(warm, s.warm)
		sys = s
	}
	defer sys.close()
	p := runOps(sys.x, w, w.warmup, len(w.seq), time.Now().Add(measure), clients)
	sys.applyInserts(w.ops, p)
	sh := endToEndSheet(p, took, sys)
	// The per-operation samples are the benchmark's memory, not the
	// program's: drop them before the heap is read.
	p.sel, p.ins, p.inserted = nil, nil, nil
	sh.set("heap_mb", systemHeapMB(sys, base))
	sh.notes = append(sh.notes, fmt.Sprintf("set-ups took %v, of which warm-up %v", took, warm))
	return finish(w, sys, p, sh, endToEnd)
}

// tracedRun is the per-layer run. It measures the untraced path first, on a
// fresh set-up, then the traced path on another over the identical
// operations, so trace.overhead_ratio compares like with like.
func tracedRun(w *workloadDef, measure time.Duration, spansPath string) (*result, error) {
	plain, err := setup(w, false)
	if err != nil {
		return nil, err
	}
	pp := runOps(plain.x, w, w.warmup, len(w.seq), time.Now().Add(measure), clients)
	plain.close()

	sys, err := setup(w, true)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	before, err := snapshot(sys)
	if err != nil {
		return nil, err
	}
	sys.tr.setRecording(true)
	p := runOps(sys.x, w, w.warmup, len(w.seq), time.Now().Add(measure), clients)
	sys.tr.setRecording(false)
	after, err := snapshot(sys)
	if err != nil {
		return nil, err
	}
	sys.applyInserts(w.ops, p)
	sh := layerSheet(sys.tr.spans(), before, after, p.attempted, sys)
	sh.set("trace.overhead_ratio", ratio(rate(p), rate(pp)))
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := sys.tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	sh.notes = append(sh.notes, fmt.Sprintf("spans: %d written to %s", len(sys.tr.spans()), spansPath))
	return finish(w, sys, p, sh, perLayer)
}

// finish runs the correctness check and assembles the result.
func finish(w *workloadDef, sys *system, p phase, sh *sheet, list []struct{ name, unit string }) (*result, error) {
	r := &result{workload: w.name, attempted: p.attempted, failed: p.failed, firstErr: p.firstErr,
		all: sh, exhausted: p.exhausted}
	r.checkErr = check(sys, w)
	r.correct = r.checkErr == nil
	ms, err := sh.declared(list)
	if err != nil {
		r.print(os.Stdout)
		return nil, err
	}
	r.metrics = ms
	return r, nil
}

// print writes the human-readable report, then the JSON line.
func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s: %d operations attempted, %d failed\n", r.workload, r.attempted, r.failed)
	if r.firstErr != "" {
		fmt.Fprintf(f, "first failure: %s\n", r.firstErr)
	}
	if r.exhausted {
		fmt.Fprintln(f, "warning: the operation sequence ran out before the measured phase ended")
	}
	if r.checkErr != nil {
		fmt.Fprintf(f, "WRONG ANSWER: %v\n", r.checkErr)
	}
	names := make([]string, 0, len(r.all.vals))
	for n := range r.all.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-40s %14.6g %s\n", n, r.all.vals[n], unitOf(n))
	}
	for _, n := range r.all.notes {
		fmt.Fprintf(f, "  note: %s\n", n)
	}
	if r.metrics == nil {
		return
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(2)
	}
	fmt.Fprintln(f, string(b))
}
