package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The steadiness check, the in-repo stand-in for benchstat:
//
//	bash perfbench/run.sh compare DIR_A [DIR_B]
//
// Each directory holds one file per run, named <workload>.<anything>, with
// the run's standard output (its last line is the JSON result); runset.sh
// makes such a directory. For every workload and end-to-end metric of
// BENCHMARK.json (read from the working directory) it prints each set's
// median and quartiles and the spread (Q3-Q1)/median. With one directory it
// flags spreads above the metric's bound; with two it also flags a second
// median worse than the first by more than the bound. It exits non-zero
// when anything is flagged.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet maps workload -> metric -> values, one per run.
type runSet map[string]map[string][]float64

func loadRuns(dir string) (runSet, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		wl, _, _ := strings.Cut(e.Name(), ".")
		line, err := lastLine(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var r struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %v", e.Name(), err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: run reported a wrong answer", e.Name())
		}
		if set[wl] == nil {
			set[wl] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set[wl][name] = append(set[wl][name], m.Value)
		}
	}
	return set, nil
}

func lastLine(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last, sc.Err()
}

func compare(args []string, out io.Writer) error {
	if len(args) < 1 || len(args) > 2 {
		return fmt.Errorf("usage: compare DIR_A [DIR_B]")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sets := make([]runSet, len(args))
	for i, dir := range args {
		if sets[i], err = loadRuns(dir); err != nil {
			return err
		}
	}
	var workloads []string
	for wl := range sets[0] {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	flagged := 0
	fmt.Fprintf(out, "%-10s %-14s %5s %s\n", "workload", "metric", "bound", "set: n median [q1 q3] spread ...  verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			line := fmt.Sprintf("%-10s %-14s %5.2f", wl, m.Name, m.Bound)
			var meds []float64
			verdict := "ok"
			for i, set := range sets {
				vals := set[wl][m.Name]
				q1, med, q3, err := quartiles(vals)
				if err != nil {
					line += fmt.Sprintf("  %c: %v", 'A'+i, err)
					verdict = "MISSING"
					continue
				}
				spread := ratio(q3-q1, med)
				line += fmt.Sprintf("  %c: %d %.5g [%.5g %.5g] %.3f", 'A'+i, len(vals), med, q1, q3, spread)
				meds = append(meds, med)
				if spread > m.Bound {
					verdict = "SPREAD"
				}
			}
			if len(meds) == 2 && verdict == "ok" && worse(meds[0], meds[1], m.Better) > m.Bound {
				verdict = fmt.Sprintf("WORSE by %.3f", worse(meds[0], meds[1], m.Better))
			}
			if verdict != "ok" {
				flagged++
			}
			fmt.Fprintf(out, "%s  %s\n", line, verdict)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d workload x metric pairs flagged", flagged)
	}
	return nil
}

// worse is how much worse b is than a, as a share of a (negative when b is
// better).
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}
