package gio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"infera/internal/dataframe"
)

// sameBits reports whether two columns hold the same kind, length and
// values bit for bit (NaN payloads and the sign of zero included).
func sameBits(a, b *dataframe.Column) bool {
	if a.Name != b.Name || a.Kind != b.Kind || a.Len() != b.Len() {
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

// edgeFrame holds the values a byte-level read must not normalize: NaNs
// with arbitrary payload bits (quiet, signalling, negative), -0, ±Inf,
// subnormals, and the integer extremes.
func edgeFrame() *dataframe.Frame {
	return dataframe.MustFromColumns(
		dataframe.NewFloat("f", []float64{
			math.Float64frombits(0x7ff8_dead_beef_0001),
			math.Float64frombits(0x7ff0_0000_0000_0001),
			math.Float64frombits(0xfff4_0000_1234_5678),
			math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
			math.SmallestNonzeroFloat64, -math.MaxFloat64,
		}),
		dataframe.NewInt("i", []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 42, -7, 1 << 40, -(1 << 53)}),
		dataframe.NewString("s", []string{"", "a", "é", "x\ny", "", "long string value", "0", "-0", "NaN"}),
	)
}

// checkReadMatchesDecode asserts that every column ReadColumn returns is
// bit-identical to DecodeBlock over the same block fetched by ReadBlock.
func checkReadMatchesDecode(t *testing.T, path string) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range r.ColumnNames() {
		col, n, err := r.ReadColumn(name)
		if err != nil {
			t.Fatalf("ReadColumn(%q): %v", name, err)
		}
		info, blk, err := r.ReadBlock(name)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := DecodeBlock(name, info.Kind, blk, r.NumRows())
		if err != nil {
			t.Fatal(err)
		}
		if n != info.Size {
			t.Fatalf("%s: ReadColumn reported %d bytes, block is %d", name, n, info.Size)
		}
		if !sameBits(col, ref) {
			t.Fatalf("%s: ReadColumn %v differs from DecodeBlock %v", name, col, ref)
		}
	}
}

// forcePortable runs the rest of the test as if on a big-endian host: no
// vector views, every numeric block encoded and decoded element by element.
func forcePortable(t *testing.T) {
	t.Helper()
	saved := hostLittleEndian
	hostLittleEndian = false
	t.Cleanup(func() { hostLittleEndian = saved })
}

func TestReadColumnMatchesDecodeBlock(t *testing.T) {
	dir := t.TempDir()
	native := filepath.Join(dir, "native.gio")
	if err := WriteFile(native, edgeFrame(), nil); err != nil {
		t.Fatal(err)
	}
	checkReadMatchesDecode(t, native)

	t.Run("portable", func(t *testing.T) {
		forcePortable(t)
		checkReadMatchesDecode(t, native)
		// Written without vector views, the file is byte-identical.
		portable := filepath.Join(dir, "portable.gio")
		if err := WriteFile(portable, edgeFrame(), nil); err != nil {
			t.Fatal(err)
		}
		a, _ := os.ReadFile(native)
		b, _ := os.ReadFile(portable)
		if !bytes.Equal(a, b) {
			t.Fatal("native and portable writes differ")
		}
		if _, ok := VectorBlock(dataframe.NewFloat("f", []float64{1})); ok {
			t.Fatal("VectorBlock offered a view on a big-endian host")
		}
	})

	t.Run("zero rows", func(t *testing.T) {
		p := filepath.Join(dir, "empty.gio")
		f := dataframe.MustFromColumns(dataframe.NewFloat("f", nil), dataframe.NewInt("i", nil))
		if err := WriteFile(p, f, nil); err != nil {
			t.Fatal(err)
		}
		checkReadMatchesDecode(t, p)
	})
}

// TestVectorBlockIsEncodeBlock: the view of a vector and the encoded copy
// are the same bytes, and CastBlock turns them back into the vector.
func TestVectorBlockIsEncodeBlock(t *testing.T) {
	f := edgeFrame()
	for i := 0; i < f.NumCols(); i++ {
		c := f.ColumnAt(i)
		view, ok := VectorBlock(c)
		if c.Kind == dataframe.String {
			if ok {
				t.Fatal("VectorBlock offered a view of a string column")
			}
			continue
		}
		enc, err := EncodeBlock(c)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(view, enc) {
			t.Fatalf("%s: vector view differs from EncodeBlock", c.Name)
		}
		back, err := CastBlock(c.Name, c.Kind, view, c.Len())
		if err != nil || !sameBits(back, c) {
			t.Fatalf("%s: CastBlock round trip: %v", c.Name, err)
		}
	}
}

// writeRaw writes a gio file whose header and blocks are exactly as given
// (offsets filled in), so a test can declare sizes and row counts that
// WriteFile would never produce.
func writeRaw(t *testing.T, path string, rows int, cols []ColumnInfo, blocks [][]byte) {
	t.Helper()
	h := header{NumRows: rows, Columns: cols}
	for i := range h.Columns {
		h.Columns[i].Size = int64(len(blocks[i]))
		h.Columns[i].CRC = crc32.Checksum(blocks[i], castagnoli)
	}
	// Offsets are fixed-width so the header length does not depend on them.
	for i := range h.Columns {
		h.Columns[i].Offset = 1 << 40
	}
	js, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(len(magic) + 4 + len(js))
	for i := range h.Columns {
		h.Columns[i].Offset = off
		off += h.Columns[i].Size
	}
	js2, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	// Pad back to the sized length; JSON ignores trailing spaces.
	js2 = append(js2, bytes.Repeat([]byte(" "), len(js)-len(js2))...)
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, uint32(len(js2)))
	buf.Write(js2)
	for _, b := range blocks {
		buf.Write(b)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReadColumnRejectsBadBlocks(t *testing.T) {
	dir := t.TempDir()
	four, _ := EncodeBlock(dataframe.NewFloat("f", []float64{1, 2, 3, 4}))

	for _, portable := range []bool{false, true} {
		t.Run(map[bool]string{false: "native", true: "portable"}[portable], func(t *testing.T) {
			if portable {
				forcePortable(t)
			}
			// A block whose size is not 8 bytes per declared row, for rows
			// both above and below what the block holds, and a size that is
			// not a multiple of 8.
			for _, c := range []struct {
				rows int
				blk  []byte
			}{{5, four}, {3, four}, {4, four[:30]}} {
				p := filepath.Join(dir, "mismatch.gio")
				writeRaw(t, p, c.rows, []ColumnInfo{{Name: "f", Kind: dataframe.Float}, {Name: "i", Kind: dataframe.Int}}, [][]byte{c.blk, c.blk})
				r, err := Open(p)
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"f", "i"} {
					if _, _, err := r.ReadColumn(name); err == nil || !strings.Contains(err.Error(), "block size") {
						t.Fatalf("rows %d, %d-byte block: want a block size error, got %v", c.rows, len(c.blk), err)
					}
				}
				r.Close()
			}

			// One flipped payload byte in each numeric block.
			p := filepath.Join(dir, "flipped.gio")
			if err := WriteFile(p, edgeFrame(), nil); err != nil {
				t.Fatal(err)
			}
			raw, _ := os.ReadFile(p)
			r, err := Open(p)
			if err != nil {
				t.Fatal(err)
			}
			infos := r.Columns()
			r.Close()
			for _, info := range infos[:2] {
				bad := append([]byte(nil), raw...)
				bad[info.Offset+info.Size/2] ^= 0x01
				if err := os.WriteFile(p, bad, 0o644); err != nil {
					t.Fatal(err)
				}
				r, err := Open(p)
				if err != nil {
					t.Fatal(err)
				}
				_, _, err = r.ReadColumn(info.Name)
				if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
					t.Fatalf("%s: want CRC mismatch, got %v", info.Name, err)
				}
				if r.BytesRead() != info.Size {
					t.Fatalf("%s: BytesRead = %d, want the %d bytes read", info.Name, r.BytesRead(), info.Size)
				}
				r.Close()
			}
		})
	}
}

// TestReadColumnOneAllocation pins "one buffer per column": reading a
// float column of N rows allocates its 8N-byte vector and only a small
// constant besides — no second, block-sized buffer.
func TestReadColumnOneAllocation(t *testing.T) {
	const n = 1 << 16
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	p := filepath.Join(t.TempDir(), "big.gio")
	if err := WriteFile(p, dataframe.MustFromColumns(dataframe.NewFloat("f", vals)), nil); err != nil {
		t.Fatal(err)
	}
	r, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		col, _, err := r.ReadColumn("f")
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if col.F[n-1] != vals[n-1] {
			t.Fatal("wrong data")
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(8*n + 4096); best > limit {
		t.Fatalf("ReadColumn of %d float rows allocated %d bytes, want <= %d", n, best, limit)
	}
}

// TestReaderStatIsOpenedFile: a file renamed over the path after Open
// does not change what the reader reports — it describes, and reads, the
// file it opened.
func TestReaderStatIsOpenedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gio")
	small := dataframe.MustFromColumns(dataframe.NewInt("i", []int64{1, 2, 3}))
	if err := WriteFile(path, small, nil); err != nil {
		t.Fatal(err)
	}
	opened, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	next := filepath.Join(dir, "next.gio")
	big := dataframe.MustFromColumns(dataframe.NewInt("i", make([]int64, 100)))
	if err := WriteFile(next, big, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, path); err != nil {
		t.Fatal(err)
	}
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if now.Size() == opened.Size() {
		t.Fatal("test setup: replacement has the same size")
	}
	st := r.Stat()
	if st.Size() != opened.Size() || !st.ModTime().Equal(opened.ModTime()) || !os.SameFile(st, opened) {
		t.Fatalf("reader reports size %d mtime %v, want the opened file's %d %v", st.Size(), st.ModTime(), opened.Size(), opened.ModTime())
	}
	if r.Size() != opened.Size() {
		t.Fatalf("Size = %d, want %d", r.Size(), opened.Size())
	}
	col, _, err := r.ReadColumn("i")
	if err != nil || col.Len() != 3 {
		t.Fatalf("read after rename: %v rows, err %v", col, err)
	}
}

// dirtyAlloc hands out vectors with spare capacity, every value set to a
// pattern no column holds: a read into it must overwrite exactly the first
// n values and clip the rest away.
type dirtyAlloc struct{ spare int }

func (d dirtyAlloc) Floats(n int) []float64 {
	v := make([]float64, n+d.spare)
	for i := range v {
		v[i] = math.Float64frombits(0x7ff4_bad0_bad0_bad0)
	}
	return v
}

func (d dirtyAlloc) Ints(n int) []int64 {
	v := make([]int64, n+d.spare)
	for i := range v {
		v[i] = 0x5a5a_5a5a_5a5a_5a5a
	}
	return v
}

// TestReadIntoReusedBufferBitIdentical: reading into a dirty, larger
// vector from an Alloc (ReadColumnAlloc) gives the same bits as a fresh
// read, NaN payloads, -0, ±Inf and MinInt64 included, with cap == len; a
// nil Alloc is the fresh read.
func TestReadIntoReusedBufferBitIdentical(t *testing.T) {
	p := filepath.Join(t.TempDir(), "edge.gio")
	if err := WriteFile(p, edgeFrame(), nil); err != nil {
		t.Fatal(err)
	}
	r, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range r.ColumnNames() {
		fresh, _, err := r.ReadColumn(name)
		if err != nil {
			t.Fatal(err)
		}
		_, freshBlk, err := r.ReadBlock(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []Alloc{nil, dirtyAlloc{}, dirtyAlloc{spare: 37}} {
			col, n, err := r.ReadColumnAlloc(name, a)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(len(freshBlk)) || !sameBits(col, fresh) {
				t.Fatalf("%s with %T: read into a reused vector differs from a fresh read", name, a)
			}
			if cap(col.F) != len(col.F) || cap(col.I) != len(col.I) {
				t.Fatalf("%s with %T: cap %d/%d, want clipped to %d", name, a, cap(col.F), cap(col.I), col.Len())
			}
		}
	}
}
