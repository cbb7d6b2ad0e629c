package stage

import (
	"bytes"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/gio"
)

// edgeSnapshot writes a gio file whose values a byte-level path must not
// normalize: NaNs with payload bits, -0, ±Inf, integer extremes, plus a
// string column.
func edgeSnapshot(t *testing.T, dir string) string {
	t.Helper()
	f := dataframe.MustFromColumns(
		dataframe.NewFloat("f", []float64{
			math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff4_0000_1234_5678),
			math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 2.5, 0,
		}),
		dataframe.NewInt("i", []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 1 << 40, -(1 << 53), 7}),
		dataframe.NewString("s", []string{"", "a", "é", "x\ny", "", "b", "0", "NaN"}),
	)
	path := filepath.Join(dir, "edge.gio")
	if err := gio.WriteFile(path, f, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameColumn reports whether two columns hold the same kind, length and
// values bit for bit.
func sameColumn(a, b *dataframe.Column) bool {
	if a.Kind != b.Kind || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		switch a.Kind {
		case dataframe.Float:
			if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
				return false
			}
		case dataframe.Int:
			if a.I[i] != b.I[i] {
				return false
			}
		default:
			if a.S[i] != b.S[i] {
				return false
			}
		}
	}
	return true
}

// diskEntryOf returns a copy of the disk tier's index entry for k.
func diskEntryOf(t testing.TB, dt *diskTier, k key) diskEntry {
	t.Helper()
	dt.mu.Lock()
	defer dt.mu.Unlock()
	el, ok := dt.items[k]
	if !ok {
		t.Fatalf("%s/%s not in the disk tier", k.path, k.col)
	}
	return *el.Value.(*diskEntry)
}

// recordOf returns the bytes of the disk tier's record of k, read from its
// segment log.
func recordOf(t testing.TB, dt *diskTier, k key) []byte {
	t.Helper()
	e := diskEntryOf(t, dt, k)
	log, err := os.ReadFile(e.seg.Path() + ".log")
	if err != nil {
		t.Fatal(err)
	}
	if end := e.base + e.payloadOff + e.bytes; end <= int64(len(log)) {
		return log[e.base:end]
	}
	t.Fatalf("%s/%s: record at %d past the end of its %d-byte log", k.path, k.col, e.base, len(log))
	return nil
}

// TestServingPathsBitIdentical: one column served by the decoder (read
// straight into the vector), by a promotion from the disk tier (an mmap
// cast for numeric columns) and by the tier's copy-decode fallback is the
// same column bit for bit.
func TestServingPathsBitIdentical(t *testing.T) {
	dir := t.TempDir()
	path := edgeSnapshot(t, dir)
	stageDir := filepath.Join(dir, "stage")
	cols := []string{"f", "i", "s"}

	c1 := newTiered(t, 1<<30, stageDir)
	decoded, _, err := readCols(t, c1, path, cols...)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := newTiered(t, 1<<30, stageDir)
	defer c2.Close()
	promoted, _, err := readCols(t, c2, path, cols...)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskHits != 3 || st.Opens != 0 {
		t.Fatalf("want all three columns promoted: disk_hits %d, opens %d", st.DiskHits, st.Opens)
	}
	for _, name := range cols {
		k := key{path: path, col: name}
		e := diskEntryOf(t, c2.disk, k)
		f, h, err := openBlk(&e)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := decodeCopy(io.NewSectionReader(f, e.base, e.payloadOff+e.bytes), k, h)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		d, p := decoded.MustColumn(name), promoted.MustColumn(name)
		if !sameColumn(d, p) || !sameColumn(d, copied) {
			t.Fatalf("%s: decode %v, promotion %v, copy-decode %v", name, d, p, copied)
		}
		if gio.NativeLayout(e.kind) && mmapSupported && e.m == nil {
			t.Fatalf("%s: numeric promotion did not take the mmap cast", name)
		}
	}
}

// TestPersistFromVectorMatchesEncodeBlock: a block record written through
// from a cached vector's own bytes is byte-identical to one written from
// gio.EncodeBlock's copy, as the per-block files were.
func TestPersistFromVectorMatchesEncodeBlock(t *testing.T) {
	dir := t.TempDir()
	path := edgeSnapshot(t, dir)
	stageDir := filepath.Join(dir, "stage")

	c := newTiered(t, 1<<30, stageDir)
	defer c.Close()
	f, _, err := readCols(t, c, path, "f", "i", "s")
	if err != nil {
		t.Fatal(err)
	}

	ref, err := newDiskTier(filepath.Join(dir, "ref"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"f", "i", "s"} {
		k := key{path: path, col: name}
		e := diskEntryOf(t, c.disk, k)
		col := f.MustColumn(name)
		payload, err := gio.EncodeBlock(col)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.put(k, e.stamp, col.Kind, col.Len(), payload); err != nil {
			t.Fatal(err)
		}
		got, want := recordOf(t, c.disk, k), recordOf(t, ref, k)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: written-through block (%d bytes) differs from the EncodeBlock one (%d bytes)", name, len(got), len(want))
		}
		// A per-block file: header, key strings, zero padding, payload.
		h := blkHeader{kind: col.Kind, rows: int64(col.Len()), srcMtimeNS: e.stamp.mtime, srcSize: e.stamp.size,
			payloadLen: int64(len(payload)), crc: crc32.Checksum(payload, blkCastagnoli), pathLen: len(path), colLen: len(name)}
		h.payloadOff = align8(int64(blkHeaderSize + len(path) + len(name)))
		file := append(append(encodeBlkHeader(h), path...), name...)
		file = append(append(file, make([]byte, h.payloadOff-int64(len(file)))...), payload...)
		if !bytes.Equal(got, file) {
			t.Fatalf("%s: record (%d bytes) differs from the block file that holds it (%d bytes)", name, len(got), len(file))
		}
	}
}
