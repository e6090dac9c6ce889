package server

import "sync"

// segmentHeat keeps, per table and segment index, the number of live cached
// artifacts that reference the segment: result-cache entries count the
// segments their execution read (ExecInfo.SegmentsTouched), partials
// payloads every segment they retain a partial for. The caches maintain the
// counts as they change — add on admission, subtract on replacement and
// eviction — so a snapshot costs O(segments of the table) instead of a walk
// over every cached entry.
//
// Lock order: a cache's own lock (result-cache shard or partials mutex) →
// mu. The caches update the counters while holding their lock, so the
// counts and the cache contents never drift apart; snapshot takes only mu.
// The zero value is ready to use.
type segmentHeat struct {
	mu sync.Mutex
	// tables holds only positive counts: a segment whose count drops to
	// zero is deleted, and so is a table with no counted segment left.
	tables map[string]map[int]int
}

// add applies d (+1 or -1) to the count of every segment in segs for
// table. An artifact is added and removed with the same segs list, so the
// counts return to zero exactly when no cached artifact references them.
func (h *segmentHeat) add(table string, segs []int, d int) {
	if len(segs) == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.tables[table]
	if m == nil {
		if h.tables == nil {
			h.tables = make(map[string]map[int]int)
		}
		m = make(map[int]int)
		h.tables[table] = m
	}
	for _, si := range segs {
		if n := m[si] + d; n != 0 {
			m[si] = n
		} else {
			delete(m, si)
		}
	}
	if len(m) == 0 {
		delete(h.tables, table)
	}
}

// snapshot returns a copy of table's counts (empty, never nil, for a table
// nothing references).
func (h *segmentHeat) snapshot(table string) map[int]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.tables[table]
	out := make(map[int]int, len(m))
	for si, n := range m {
		out[si] = n
	}
	return out
}
