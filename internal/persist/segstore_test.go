package persist

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"h2o/internal/data"
	"h2o/internal/storage"
)

func segStoreFixture(t *testing.T) (*SegmentStore, *storage.Relation) {
	t.Helper()
	st, err := NewSegmentStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tb := data.Generate(data.SyntheticSchema("R", 4), 1000, 11)
	return st, storage.BuildColumnMajorSeg(tb, 100)
}

func TestSegmentStoreRoundTrip(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[2]
	var sums []uint64
	for _, g := range seg.Groups {
		sums = append(sums, storage.GroupChecksum(g))
	}

	if err := st.WriteSegment("r-seg2", seg); err != nil {
		t.Fatal(err)
	}
	if !seg.Unload() {
		t.Fatal("unload failed")
	}
	// V2 faults install the encoded form; Acquire decodes back to flat.
	rel.SetLoader(func(s *storage.Segment) error { return st.ReadSegment("r-seg2", s) })
	faulted, err := seg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if !faulted {
		t.Fatal("read did not count as a fault")
	}
	defer seg.Release()
	for gi, g := range seg.Groups {
		if storage.GroupChecksum(g) != sums[gi] {
			t.Fatalf("group %d content changed across spill round trip", gi)
		}
	}
}

// writePreviousFormat writes seg as a well-formed file of the flat format
// that preceded H2OSEG02 (magic version digit 1): version, rows, group
// count, each group's wire section, and that format's salted
// position-mixed digest over the flat group data.
func writePreviousFormat(t *testing.T, path string, seg *storage.Segment) {
	t.Helper()
	magic := segMagicV2
	magic[7] = '1'
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.Write(magic[:])
	writeU64(bw, seg.Version())
	writeU64(bw, uint64(seg.Rows))
	writeU32(bw, uint32(len(seg.Groups)))
	var digest uint64
	for gi, g := range seg.Groups {
		if err := writeGroupSection(bw, g); err != nil {
			t.Fatal(err)
		}
		for i, v := range g.Data {
			h := uint64(v) ^ (uint64(i) * 0x9e3779b97f4a7c15) ^ (uint64(gi) * 0xc2b2ae3d27d4eb4f)
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
			digest += h
		}
	}
	writeU64(bw, digest)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentStoreRejectsPreviousFormat: a well-formed file of the flat
// format that preceded H2OSEG02 is refused with a clean error, and the
// failed fault leaves the segment untouched — still spilled, no flat data
// or encoding installed — so a later fault from a current file succeeds.
func TestSegmentStoreRejectsPreviousFormat(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[2]
	var sums []uint64
	for _, g := range seg.Groups {
		sums = append(sums, storage.GroupChecksum(g))
	}
	writePreviousFormat(t, st.Path("old"), seg)
	if err := st.WriteSegment("new", seg); err != nil {
		t.Fatal(err)
	}
	if !seg.Unload() {
		t.Fatal("unload failed")
	}

	err := st.ReadSegment("old", seg)
	if err == nil || !strings.Contains(err.Error(), "not an H2OSEG02 segment file") {
		t.Fatalf("ReadSegment on a previous-format file: err = %v, want a not-an-H2OSEG02 error", err)
	}
	if seg.State() != storage.SegSpilled {
		t.Fatalf("segment state %v after a rejected fault, want spilled", seg.State())
	}
	for gi, g := range seg.Groups {
		if g.Data != nil || g.CachedEncoding() != nil {
			t.Fatalf("group %d gained data or an encoding from a rejected file", gi)
		}
	}

	// The untouched segment still faults in from a current file.
	rel.SetLoader(func(s *storage.Segment) error { return st.ReadSegment("new", s) })
	if _, err := seg.Acquire(); err != nil {
		t.Fatal(err)
	}
	defer seg.Release()
	for gi, g := range seg.Groups {
		if storage.GroupChecksum(g) != sums[gi] {
			t.Fatalf("group %d content changed across the rejected fault", gi)
		}
	}
}

func TestSegmentStoreCorruptFile(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[1]
	if err := st.WriteSegment("k", seg); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the data section.
	path := st.Path("k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if !seg.Unload() {
		t.Fatal("unload failed")
	}
	err = st.ReadSegment("k", seg)
	if err == nil {
		t.Fatal("corrupted segment file must fail to load")
	}
	if !strings.Contains(err.Error(), "digest") && !strings.Contains(err.Error(), "persist:") {
		t.Fatalf("want a clean persist error, got %v", err)
	}
	// A failed fault leaves the skeleton untouched (data still nil).
	for _, g := range seg.Groups {
		if g.Data != nil {
			t.Fatal("failed load installed partial data")
		}
	}
}

func TestSegmentStoreTruncatedFile(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[1]
	if err := st.WriteSegment("k", seg); err != nil {
		t.Fatal(err)
	}
	path := st.Path("k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if !seg.Unload() {
		t.Fatal("unload failed")
	}
	if err := st.ReadSegment("k", seg); err == nil {
		t.Fatal("truncated segment file must fail to load")
	}
}

func TestSegmentStoreStaleVersion(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[1]
	if err := st.WriteSegment("k", seg); err != nil {
		t.Fatal(err)
	}
	// Mutate the segment after the spill was written: the file is stale.
	g, err := storage.StitchSeg(seg, []data.AttrID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.AddGroup(g); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadSegment("k", seg); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("want stale-version error, got %v", err)
	}
}

func TestSegmentStoreWriteIsAtomic(t *testing.T) {
	st, rel := segStoreFixture(t)
	seg := rel.Segments[0]
	if err := st.WriteSegment("k", seg); err != nil {
		t.Fatal(err)
	}
	// No temporary file may survive a successful write.
	matches, err := filepath.Glob(filepath.Join(st.Dir(), "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temporary files left behind: %v", matches)
	}
}

func TestSegmentStoreRemove(t *testing.T) {
	st, rel := segStoreFixture(t)
	if err := st.WriteSegment("k", rel.Segments[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("k"); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("k"); err != nil {
		t.Fatalf("removing a missing file must be a no-op, got %v", err)
	}
}

// TestSaveFileDurable covers the persist.SaveFile hardening: the snapshot
// lands atomically (no .tmp residue) and survives a LoadFile round trip.
func TestSaveFileDurable(t *testing.T) {
	tb := data.Generate(data.SyntheticSchema("R", 3), 500, 5)
	rel := storage.BuildColumnMajorSeg(tb, 100)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.h2o")
	if err := SaveFile(path, rel); err != nil {
		t.Fatal(err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(matches) != 0 {
		t.Fatalf("temporary files left behind: %v", matches)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != rel.Rows {
		t.Fatalf("rows %d != %d", got.Rows, rel.Rows)
	}
}
