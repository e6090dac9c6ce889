// Package persist serializes relations — schema, segments and each
// segment's full set of column groups, i.e. the (possibly mixed, per-
// segment) layout the engine has evolved — to a compact binary snapshot
// and restores them. A restored relation resumes with the adapted physical
// design instead of re-learning it, which is how a deployment survives
// restarts without losing the benefit of past adaptation.
//
// Format (all integers little-endian):
//
//	magic   "H2OSNAP2"
//	schema  name, attribute names        (uvarint-length-prefixed strings)
//	rows    uint64                       total rows
//	segcap  uint64                       segment capacity
//	nsegs   uint32, then per segment:
//	          rows   uint64
//	          groups uint32 count, then per group:
//	            attrs  uint32 count + uint32 ids
//	            stride uint32
//	            data   segRows*stride int64 values
//	digest  uint64 order-independent content checksum (storage.Checksum)
//
// Zone maps are not serialized: they are rebuilt in one pass per group at
// load time, exactly as a reorganization rebuilds them. The relation
// version counter (storage.Relation.Version) is deliberately not
// serialized either: a restored relation draws a fresh version from the
// process-wide clock, so result-cache entries (internal/server) keyed
// against whatever relation it replaces can never be served for it.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"h2o/internal/data"
	"h2o/internal/storage"
)

var magic = [8]byte{'H', '2', 'O', 'S', 'N', 'A', 'P', '2'}

// Save writes a snapshot of rel to w. Spilled segments are faulted in one
// at a time (and stay resident afterwards): a snapshot necessarily reads
// every byte, so callers on a memory budget should re-enforce it after
// saving (h2o.DB.SaveTable does).
func Save(w io.Writer, rel *storage.Relation) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := writeString(bw, rel.Schema.Name); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(rel.Schema.NumAttrs())); err != nil {
		return err
	}
	for _, a := range rel.Schema.Attrs {
		if err := writeString(bw, a); err != nil {
			return err
		}
	}
	if err := writeU64(bw, uint64(rel.Rows)); err != nil {
		return err
	}
	if err := writeU64(bw, uint64(rel.SegCap)); err != nil {
		return err
	}
	if err := writeU32(bw, uint32(len(rel.Segments))); err != nil {
		return err
	}
	for _, seg := range rel.Segments {
		if err := writeU64(bw, uint64(seg.Rows)); err != nil {
			return err
		}
		if err := writeU32(bw, uint32(len(seg.Groups))); err != nil {
			return err
		}
		if err := saveSegmentGroups(bw, seg); err != nil {
			return err
		}
	}
	digest, err := storage.Checksum(rel, allAttrs(rel.Schema.NumAttrs()))
	if err != nil {
		return fmt.Errorf("persist: digest: %w", err)
	}
	if err := writeU64(bw, digest); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads a snapshot and reconstructs the relation — segment structure,
// per-segment layouts and all — verifying the content digest.
func Load(r io.Reader) (*storage.Relation, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("persist: reading magic: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("persist: not an H2O snapshot (magic %q)", got[:])
	}
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	nAttrs, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if nAttrs == 0 || nAttrs > 1<<20 {
		return nil, fmt.Errorf("persist: implausible attribute count %d", nAttrs)
	}
	attrs := make([]string, nAttrs)
	for i := range attrs {
		if attrs[i], err = readString(br); err != nil {
			return nil, err
		}
	}
	schema, err := data.NewSchema(name, attrs)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	rows, err := readU64(br)
	if err != nil {
		return nil, err
	}
	segCap, err := readU64(br)
	if err != nil {
		return nil, err
	}
	if segCap == 0 || segCap > 1<<31 {
		return nil, fmt.Errorf("persist: implausible segment capacity %d", segCap)
	}
	nSegs, err := readU32(br)
	if err != nil {
		return nil, err
	}
	if nSegs == 0 || uint64(nSegs) > rows/segCap+2 {
		return nil, fmt.Errorf("persist: implausible segment count %d for %d rows", nSegs, rows)
	}
	segGroups := make([][]*storage.ColumnGroup, nSegs)
	var totalRows uint64
	for si := uint32(0); si < nSegs; si++ {
		segRows, err := readU64(br)
		if err != nil {
			return nil, err
		}
		if segRows > segCap {
			return nil, fmt.Errorf("persist: segment %d has %d rows, capacity %d", si, segRows, segCap)
		}
		totalRows += segRows
		nGroups, err := readU32(br)
		if err != nil {
			return nil, err
		}
		if nGroups == 0 || uint64(nGroups) > 4*nAttrs {
			return nil, fmt.Errorf("persist: segment %d has implausible group count %d", si, nGroups)
		}
		groups := make([]*storage.ColumnGroup, 0, nGroups)
		for gi := uint32(0); gi < nGroups; gi++ {
			nga, err := readU32(br)
			if err != nil {
				return nil, err
			}
			if nga == 0 || uint64(nga) > nAttrs {
				return nil, fmt.Errorf("persist: segment %d group %d has implausible width %d", si, gi, nga)
			}
			ids := make([]data.AttrID, nga)
			for i := range ids {
				v, err := readU32(br)
				if err != nil {
					return nil, err
				}
				ids[i] = data.AttrID(v)
			}
			stride, err := readU32(br)
			if err != nil {
				return nil, err
			}
			if int(stride) < len(ids) {
				return nil, fmt.Errorf("persist: segment %d group %d stride %d below width %d", si, gi, stride, len(ids))
			}
			g := storage.NewGroupPadded(ids, int(segRows), int(stride)-len(ids))
			if err := readValues(br, g.Data); err != nil {
				return nil, err
			}
			groups = append(groups, g)
		}
		segGroups[si] = groups
	}
	if totalRows != rows {
		return nil, fmt.Errorf("persist: segment rows sum to %d, header says %d", totalRows, rows)
	}
	rel, err := storage.AssembleRelation(schema, int(segCap), segGroups)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	wantDigest, err := readU64(br)
	if err != nil {
		return nil, err
	}
	gotDigest, err := storage.Checksum(rel, allAttrs(rel.Schema.NumAttrs()))
	if err != nil {
		return nil, err
	}
	if gotDigest != wantDigest {
		return nil, fmt.Errorf("persist: content digest mismatch (snapshot corrupt)")
	}
	return rel, nil
}

// saveSegmentGroups writes one segment's group section, holding the
// segment pinned so a spilled segment is faulted in (and cannot be evicted)
// for the duration of the write.
func saveSegmentGroups(bw *bufio.Writer, seg *storage.Segment) error {
	if _, err := seg.Acquire(); err != nil {
		return err
	}
	defer seg.Release()
	for _, g := range seg.Groups {
		if err := writeGroupSection(bw, g); err != nil {
			return err
		}
	}
	return nil
}

// writeGroupSection writes one group's wire section — attribute count and
// ids, stride, data. The H2OSNAP2 snapshot is its only user.
func writeGroupSection(bw *bufio.Writer, g *storage.ColumnGroup) error {
	if err := writeU32(bw, uint32(len(g.Attrs))); err != nil {
		return err
	}
	for _, a := range g.Attrs {
		if err := writeU32(bw, uint32(a)); err != nil {
			return err
		}
	}
	if err := writeU32(bw, uint32(g.Stride)); err != nil {
		return err
	}
	return writeValues(bw, g.Data)
}

// SaveFile snapshots rel to path atomically: the snapshot is written to a
// temporary file, fsynced, and renamed into place, so a crash mid-save can
// never leave a torn snapshot at path.
func SaveFile(path string, rel *storage.Relation) error {
	return atomicWriteFile(path, func(f *os.File) error {
		return Save(f, rel)
	})
}

// atomicWriteFile writes a file via tmp + fsync + rename. On any error the
// temporary file is removed and path is left untouched. The containing
// directory is fsynced best-effort after the rename so the new directory
// entry itself survives a crash.
func atomicWriteFile(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync() // not supported on every platform; the rename is still atomic
		d.Close()
	}
	return nil
}

// LoadFile restores a relation from path. The file is closed on every
// path, success or error, so a failed load (torn or corrupt snapshot)
// never leaks the descriptor.
func LoadFile(path string) (*storage.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rel, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("persist: loading %s: %w", path, err)
	}
	return rel, nil
}

// ---- wire helpers ----

const chunkValues = 8192

func writeValues(w *bufio.Writer, vals []data.Value) error {
	var buf [chunkValues * 8]byte
	for len(vals) > 0 {
		n := len(vals)
		if n > chunkValues {
			n = chunkValues
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(vals[i]))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

func readValues(r *bufio.Reader, dst []data.Value) error {
	var buf [chunkValues * 8]byte
	for len(dst) > 0 {
		n := len(dst)
		if n > chunkValues {
			n = chunkValues
		}
		if _, err := io.ReadFull(r, buf[:n*8]); err != nil {
			return fmt.Errorf("persist: truncated data section: %w", err)
		}
		for i := 0; i < n; i++ {
			dst[i] = data.Value(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		dst = dst[n:]
	}
	return nil
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("persist: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("persist: truncated string: %w", err)
	}
	return string(buf), nil
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func writeU32(w *bufio.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r *bufio.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("persist: truncated u32: %w", err)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func writeU64(w *bufio.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU64(r *bufio.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("persist: truncated u64: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func allAttrs(n int) []data.AttrID {
	out := make([]data.AttrID, n)
	for i := range out {
		out[i] = i
	}
	return out
}
