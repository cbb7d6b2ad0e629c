package stage

import (
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"infera/internal/dataframe"
	"infera/internal/gio"
)

// FuzzBlockHeader throws arbitrary bytes, written to a block file, at the
// disk tier's header surfaces: decodeBlkHeader, and readBlkHeader through
// both its callers, the index scan's readBlkEntry and the promote-time
// openBlk. None may panic or over-allocate, and whatever readBlkEntry
// accepts must be a block openBlk accepts for its own entry (and rejects
// for another key), whose payload lies inside the file, and which — when
// numeric and the right size — gio.CastBlock views without error.
func FuzzBlockHeader(f *testing.F) {
	dir := f.TempDir()
	dt, err := newDiskTier(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	for _, col := range []*dataframe.Column{
		dataframe.NewFloat("fof_halo_mass", []float64{1.5, -2.25, 0, 1e300}),
		dataframe.NewInt("fof_halo_tag", []int64{0, -1, 1 << 40}),
		dataframe.NewString("name", []string{"", "a", "x\ny"}),
	} {
		payload, err := gio.EncodeBlock(col)
		if err != nil {
			f.Fatal(err)
		}
		k := key{path: "/ens/run0/step99.gio", col: col.Name}
		if err := dt.put(k, stamp{mtime: 42, size: 4096}, col.Kind, col.Len(), payload); err != nil {
			f.Fatal(err)
		}
		blk, err := os.ReadFile(filepath.Join(dir, blkFileName(k)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blk)
		f.Add(blk[:blkHeaderSize])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		_, herr := decodeBlkHeader(data)
		p := filepath.Join(t.TempDir(), "b.blk")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := readBlkEntry(p)
		if err != nil {
			return
		}
		if herr != nil {
			t.Fatalf("readBlkEntry accepted a header decodeBlkHeader rejects: %v", herr)
		}
		if e.payloadOff > int64(len(data)) || e.bytes > int64(len(data))-e.payloadOff {
			t.Fatalf("payload [%d, +%d) past the end of a %d-byte file", e.payloadOff, e.bytes, len(data))
		}
		fh, _, err := openBlk(e)
		if err != nil {
			t.Fatalf("openBlk rejected the entry readBlkEntry built: %v", err)
		}
		fh.Close()
		other := *e
		other.key.path += "x"
		if fh, _, err := openBlk(&other); err == nil {
			fh.Close()
			t.Fatal("openBlk accepted a block keyed to another entry")
		}
		if e.kind == dataframe.Float || e.kind == dataframe.Int {
			// An 8-aligned copy stands in for the page-aligned mapping.
			buf := make([]uint64, (e.bytes+7)/8)
			payload := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf)*8)[:e.bytes]
			copy(payload, data[e.payloadOff:])
			if col, err := gio.CastBlock(e.key.col, e.kind, payload, int(e.rows)); err == nil && col.Len() != int(e.rows) {
				t.Fatalf("CastBlock returned %d rows, header says %d", col.Len(), e.rows)
			}
		}
	})
}
