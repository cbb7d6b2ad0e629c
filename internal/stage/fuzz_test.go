package stage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/seglog"
)

// FuzzBlockHeader throws arbitrary bytes, written as the one record of a
// segment log whose manifest names it whole, at the disk tier's header
// surfaces: decodeBlkHeader, and readBlkHeader through both its callers,
// the attach scan's readRecords and the promote-time openBlk. None may
// panic or over-allocate, and whatever readRecords accepts must be a block
// openBlk accepts for its own entry (and rejects for another key), whose
// payload lies inside the record, and which — when numeric and the right
// size — gio.CastBlock views without error.
func FuzzBlockHeader(f *testing.F) {
	dt, err := newDiskTier(f.TempDir(), 0)
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
		blk := recordOf(f, dt, k)
		f.Add(blk)
		f.Add(blk[:blkHeaderSize])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		h, herr := decodeBlkHeader(data)
		named := int64(len(data))
		if herr == nil {
			named = h.payloadOff + h.payloadLen
		}
		dir := t.TempDir()
		seg := filepath.Join(dir, "seg-0")
		lines := fmt.Appendf(seglog.Header("b", 0, time.Unix(1, 0)), "{\"file\":%q,\"bytes\":%d}\n", seglog.Trail, named)
		if os.WriteFile(seg+".log", data, 0o644) != nil || os.WriteFile(seg+".jsonl", lines, 0o644) != nil {
			t.Fatal("writing the segment failed")
		}
		var found []*diskEntry
		if _, _, err := seglog.Open(dir, func(bs []*seglog.Block) (kept []*seglog.Block) {
			kept, found = readRecords(bs)
			return kept
		}); err != nil || len(found) == 0 {
			return
		}
		e := found[0]
		if herr != nil {
			t.Fatalf("readRecords accepted a header decodeBlkHeader rejects: %v", herr)
		}
		if e.payloadOff > int64(len(data)) || e.bytes > int64(len(data))-e.payloadOff {
			t.Fatalf("payload [%d, +%d) past the end of a %d-byte record", e.payloadOff, e.bytes, len(data))
		}
		fh, _, err := openBlk(e)
		if err != nil {
			t.Fatalf("openBlk rejected the entry readRecords built: %v", err)
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
