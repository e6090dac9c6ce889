package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"h2o/internal/core"
	"h2o/internal/data"
	"h2o/internal/exec"
	"h2o/internal/expr"
	"h2o/internal/query"
)

// scanHeat is the reference for Server.SegmentHeat: a full walk over both
// caches that counts, for every live entry whose key names table, the
// segments the entry references. The server keeps the same counts
// incrementally; the tests below hold the two equal.
func scanHeat(s *Server, table string) map[int]int {
	heat := make(map[int]int)
	prefix := strconv.Itoa(len(table)) + ":" + table + ":"
	if s.cache != nil {
		for _, sh := range s.cache.shards {
			sh.mu.RLock()
			for k, e := range sh.items {
				if !strings.HasPrefix(k, prefix) {
					continue
				}
				for _, si := range e.info.SegmentsTouched {
					heat[si]++
				}
			}
			sh.mu.RUnlock()
		}
	}
	if s.partials != nil {
		s.partials.mu.Lock()
		for k, e := range s.partials.items {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			for si := range e.p.Versions() {
				heat[si]++
			}
		}
		s.partials.mu.Unlock()
	}
	return heat
}

// checkHeat fails the test unless SegmentHeat equals the full-scan
// reference for every table.
func checkHeat(t *testing.T, s *Server, step string, tables ...string) {
	t.Helper()
	for _, table := range tables {
		if got, want := s.SegmentHeat(table), scanHeat(s, table); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: SegmentHeat(%q) = %v, full scan = %v", step, table, got, want)
		}
	}
}

// TestSegmentHeatCountsCachedReferences: the heat snapshot counts, per
// segment, the cached results that read it and the partials payloads that
// retain a contribution from it — and only for the requested table.
func TestSegmentHeatCountsCachedReferences(t *testing.T) {
	const segCap, segs = 256, 8
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()

	if heat := s.SegmentHeat("R"); len(heat) != 0 {
		t.Fatalf("empty caches reported heat %v", heat)
	}

	// Segment 0 only: one result entry touching [0], plus the repairable
	// aggregate's partials payload retaining segment 0's partial.
	cold := coldSegQuery(segCap)
	if _, _, err := s.Query(ctx, cold); err != nil {
		t.Fatal(err)
	}
	// Every segment: result entry touching all, payload over all.
	full := query.Aggregation("R", expr.AggSum, []data.AttrID{1, 2}, nil)
	if _, _, err := s.Query(ctx, full); err != nil {
		t.Fatal(err)
	}

	heat := s.SegmentHeat("R")
	if len(heat) != segs {
		t.Fatalf("heat covers %d segments, want %d: %v", len(heat), segs, heat)
	}
	// Segment 0: cold result + cold payload + full result + full payload.
	// Later segments: full result + full payload only.
	if heat[0] != 4 {
		t.Fatalf("segment 0 heat = %d, want 4: %v", heat[0], heat)
	}
	for si := 1; si < segs; si++ {
		if heat[si] != 2 {
			t.Fatalf("segment %d heat = %d, want 2: %v", si, heat[si], heat)
		}
	}

	if other := s.SegmentHeat("S"); len(other) != 0 {
		t.Fatalf("unknown table reported heat %v", other)
	}
}

// TestSegmentHeatPrefixIsTableExact: a table whose name is a prefix of
// another must not absorb its heat — the length-prefixed key keeps them
// apart.
func TestSegmentHeatPrefixIsTableExact(t *testing.T) {
	const segCap, segs = 256, 4
	b := newSegmentedBackend(t, segs*segCap, segCap, frozenOptions())
	s := New(b, Config{Workers: 1})
	defer s.Close()

	if _, _, err := s.Query(context.Background(), coldSegQuery(segCap)); err != nil {
		t.Fatal(err)
	}
	_ = data.SyntheticSchema("RR", 4) // name collision candidate
	if heat := s.SegmentHeat("RR"); len(heat) != 0 {
		t.Fatalf("prefix table absorbed heat: %v", heat)
	}
}

// TestSegmentHeatMatchesScan drives both caches through random puts, hits,
// same-key replacements (with a different touch list), LRU evictions at
// small capacities, partials budget evictions and oversized payloads, over
// tables R and RR whose key prefixes overlap. After every step the
// incrementally kept counts must equal the full-scan reference.
func TestSegmentHeatMatchesScan(t *testing.T) {
	const segs = 16
	// A payload is charged 512 bytes plus its key plus 112 per segment (one
	// ungrouped item), so the first budget holds two or three small
	// payloads and never admits one that spans every segment.
	configs := []struct {
		cfg           Config
		wantOversized bool
	}{
		{Config{Workers: 1, CacheShards: 1, CacheEntries: 4, PartialCacheBytes: 2200}, true},
		{Config{Workers: 1, CacheShards: 4, CacheEntries: 16, PartialCacheBytes: 6000}, false},
		{Config{Workers: 1, CacheShards: 2, CacheEntries: 8, PartialCacheBytes: -1}, false},
	}
	tables := []string{"R", "RR"}
	for ci, tc := range configs {
		cfg := tc.cfg
		t.Run(fmt.Sprint(ci), func(t *testing.T) {
			s := New(newSegmentedBackend(t, 256, 64, frozenOptions()), cfg)
			defer s.Close()
			if (s.partials != nil) != (cfg.PartialCacheBytes > 0) {
				t.Fatalf("partials cache present = %v with budget %d", s.partials != nil, cfg.PartialCacheBytes)
			}
			rng := rand.New(rand.NewSource(int64(ci) + 1))
			randSegs := func() []int {
				switch rng.Intn(8) {
				case 0:
					return nil
				case 1:
					return []int{}
				case 2, 3:
					return rng.Perm(segs)
				}
				var out []int
				for si := 0; si < segs; si++ {
					if rng.Intn(3) == 0 {
						out = append(out, si)
					}
				}
				return out
			}
			var oversized int
			for step := 0; step < 3000; step++ {
				table := tables[rng.Intn(len(tables))]
				norm := "q" + strconv.Itoa(rng.Intn(6))
				if rng.Intn(2) == 0 || s.partials == nil {
					// A few fingerprints per query: older ones are the
					// stale entries that keep counting until evicted.
					fp := core.TouchFingerprint{Digest: uint64(rng.Intn(3) + 1), Segments: 1, MaxVersion: 1}
					key := cacheKey(table, norm, fp)
					if rng.Intn(4) == 0 {
						s.cache.get(key)
					} else {
						s.cache.put(table, key, res(1), core.ExecInfo{SegmentsTouched: randSegs()})
					}
				} else {
					key := partialKey(table, norm)
					if rng.Intn(4) == 0 {
						s.partials.get(key)
					} else {
						p := &exec.PartialResult{Ops: []expr.AggOp{expr.AggSum}, Segs: map[int]*exec.SegPartial{}}
						for _, si := range randSegs() {
							p.Segs[si] = &exec.SegPartial{Version: uint64(step)}
						}
						if payloadCharge(key, p) > cfg.PartialCacheBytes {
							oversized++
						}
						s.partials.put(table, key, p)
					}
				}
				checkHeat(t, s, fmt.Sprintf("step %d", step), "R", "RR", "S")
			}
			// The walk must have reached every bookkeeping path it claims.
			if s.partials != nil {
				if s.partials.evicted.Load() == 0 {
					t.Error("no partials budget eviction happened")
				}
				if tc.wantOversized && oversized == 0 {
					t.Error("no oversized payload was offered")
				}
			}
			if n := s.CacheSize(); n != cfg.CacheEntries {
				t.Errorf("result cache holds %d entries, want it full at %d", n, cfg.CacheEntries)
			}
		})
	}
}
