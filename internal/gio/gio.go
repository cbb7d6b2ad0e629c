// Package gio implements a binary columnar file format modeled on HACC's
// GenericIO output files.
//
// Each file stores a JSON header describing named, typed columns plus one
// contiguous block per column, each protected by a CRC-32C checksum. The
// point of the format — and the reason the paper's data-loading agent can
// reduce terabytes to gigabytes — is selective reading: Reader.ReadColumns
// seeks to and decodes only the requested column blocks, so unread columns
// cost no I/O beyond the header. Readers track bytes actually read so the
// evaluation harness can report true I/O volumes.
//
// Numeric blocks are 8-byte little-endian values, which on a little-endian
// host is exactly the in-memory []float64/[]int64 layout. This package is
// the one place that knows it: ReadColumn reads such a block straight into
// its vector — one allocation per column, none when the caller supplies
// the vector (Alloc), CRC-32C computed over the vector's own bytes — and
// VectorBlock/CastBlock convert between a column and its block without
// copying, for callers that store blocks elsewhere (the stage cache's disk
// tier). String blocks, and every block on a big-endian host, are encoded
// and decoded element by element.
package gio

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"
	"unsafe"

	"infera/internal/dataframe"
)

// magic identifies a gio file; the trailing byte versions the format.
var magic = [8]byte{'I', 'G', 'I', 'O', '\n', 0, 0, 1}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ColumnInfo describes one column block in the file header.
type ColumnInfo struct {
	Name   string         `json:"name"`
	Kind   dataframe.Kind `json:"kind"`
	Offset int64          `json:"offset"` // from start of file
	Size   int64          `json:"size"`   // encoded block size in bytes
	CRC    uint32         `json:"crc"`    // CRC-32C of the encoded block
}

type header struct {
	NumRows int               `json:"num_rows"`
	Columns []ColumnInfo      `json:"columns"`
	Meta    map[string]string `json:"meta,omitempty"`
}

// WriteFile writes frame to path in gio format with optional metadata
// key/values (simulation id, timestep, file type, ...).
func WriteFile(path string, f *dataframe.Frame, meta map[string]string) (err error) {
	blocks := make([][]byte, f.NumCols())
	h := header{NumRows: f.NumRows(), Meta: meta, Columns: make([]ColumnInfo, f.NumCols())}
	for i := 0; i < f.NumCols(); i++ {
		c := f.ColumnAt(i)
		// The frame is only read while the file is written, so a numeric
		// column's block can be its own vector.
		blk, ok := VectorBlock(c)
		if !ok {
			var encErr error
			if blk, encErr = encodeColumn(c); encErr != nil {
				return fmt.Errorf("gio: encode %q: %w", c.Name, encErr)
			}
		}
		blocks[i] = blk
		h.Columns[i] = ColumnInfo{
			Name: c.Name,
			Kind: c.Kind,
			Size: int64(len(blk)),
			CRC:  crc32.Checksum(blk, castagnoli),
		}
	}
	hdrJSON, err := json.Marshal(&h)
	if err != nil {
		return fmt.Errorf("gio: marshal header: %w", err)
	}
	// Header layout: magic | uint32 header length | header JSON | blocks.
	// Offsets are known once the header length is fixed; the JSON length
	// would change if offsets were embedded before sizing, so offsets are
	// assigned relative to a fixed preamble and re-marshaled once.
	preamble := int64(len(magic)) + 4 + int64(len(hdrJSON))
	off := preamble
	for i := range h.Columns {
		h.Columns[i].Offset = off
		off += h.Columns[i].Size
	}
	hdrJSON2, err := json.Marshal(&h)
	if err != nil {
		return fmt.Errorf("gio: marshal header: %w", err)
	}
	// Offsets add digits; pad the first marshal estimate by re-deriving
	// until stable (at most a few iterations since lengths are monotone).
	for int64(len(hdrJSON2)) != int64(len(hdrJSON)) {
		hdrJSON = hdrJSON2
		preamble = int64(len(magic)) + 4 + int64(len(hdrJSON))
		off = preamble
		for i := range h.Columns {
			h.Columns[i].Offset = off
			off += h.Columns[i].Size
		}
		hdrJSON2, err = json.Marshal(&h)
		if err != nil {
			return fmt.Errorf("gio: marshal header: %w", err)
		}
	}

	w, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err = w.Write(magic[:]); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(hdrJSON2)))
	if _, err = w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err = w.Write(hdrJSON2); err != nil {
		return err
	}
	for _, blk := range blocks {
		if _, err = w.Write(blk); err != nil {
			return err
		}
	}
	return nil
}

// hostLittleEndian reports the host byte order. Numeric blocks are 8-byte
// little-endian, so only on a little-endian host is a block bit-identical
// to the in-memory vector. A variable so tests can force the portable
// element-by-element path.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// NativeLayout reports whether a kind's encoded block is, on this host,
// byte for byte its in-memory vector: Float and Int on little-endian
// hosts. For those kinds VectorBlock and CastBlock convert between a
// column and its block without copying.
func NativeLayout(kind dataframe.Kind) bool {
	return hostLittleEndian && (kind == dataframe.Float || kind == dataframe.Int)
}

// VectorBlock returns c's encoded block as a view of c's own vector when
// NativeLayout(c.Kind) holds, and false otherwise (EncodeBlock then builds
// the block). The view aliases the vector, so it may only be handed on
// while the column is immutable (dataframe.Column.MarkShared).
func VectorBlock(c *dataframe.Column) ([]byte, bool) {
	if !NativeLayout(c.Kind) {
		return nil, false
	}
	if c.Kind == dataframe.Float {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c.F))), 8*len(c.F)), true
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c.I))), 8*len(c.I)), true
}

// CastBlock views an 8-aligned encoded numeric block as a column vector
// without copying or decoding — VectorBlock's inverse. It fails unless
// NativeLayout(kind) holds and the block holds exactly rows values. The
// block must stay immutable and mapped for the vector's lifetime.
func CastBlock(name string, kind dataframe.Kind, blk []byte, rows int) (*dataframe.Column, error) {
	if !NativeLayout(kind) {
		return nil, fmt.Errorf("gio: %s block not castable on this host", kind)
	}
	// Compare by division: 8*rows overflows for a corrupt header's rows.
	if rows < 0 || len(blk)%8 != 0 || len(blk)/8 != rows {
		return nil, fmt.Errorf("gio: %s block size %d != 8*%d", kind, len(blk), rows)
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(blk)))%8 != 0 {
		return nil, fmt.Errorf("gio: %s block misaligned", kind)
	}
	p := unsafe.Pointer(unsafe.SliceData(blk))
	if kind == dataframe.Float {
		return dataframe.NewFloat(name, unsafe.Slice((*float64)(p), rows)), nil
	}
	return dataframe.NewInt(name, unsafe.Slice((*int64)(p), rows)), nil
}

// EncodedSize returns the exact encoded block size of c under this
// package's on-disk layout — 8 bytes per numeric element, uvarint length
// prefix plus bytes per string — without encoding anything. Callers that
// price tables by their gio footprint (e.g. sqldb's staged-table size and
// scan accounting) use this so the layout knowledge lives in one place,
// beside encodeColumn.
func EncodedSize(c *dataframe.Column) int64 {
	switch c.Kind {
	case dataframe.Float, dataframe.Int:
		return 8 * int64(c.Len())
	default:
		var tmp [binary.MaxVarintLen64]byte
		var total int64
		for _, s := range c.S {
			total += int64(binary.PutUvarint(tmp[:], uint64(len(s)))) + int64(len(s))
		}
		return total
	}
}

// EncodeBlock returns c's encoded on-disk block — byte-identical to what
// WriteFile stores for the column — in a buffer of its own. Callers that
// persist column blocks outside a full gio file (the stage cache's disk
// tier) reuse this package's layout instead of inventing a second
// serialization; for numeric columns on little-endian hosts VectorBlock
// gives the same bytes without the copy.
func EncodeBlock(c *dataframe.Column) ([]byte, error) {
	return encodeColumn(c)
}

// DecodeBlock decodes an encoded column block (EncodeBlock, or a raw block
// lifted from a gio file via ReadBlock) back into a column. rows must be
// the row count the block was encoded with.
func DecodeBlock(name string, kind dataframe.Kind, blk []byte, rows int) (*dataframe.Column, error) {
	return decodeColumn(ColumnInfo{Name: name, Kind: kind, Size: int64(len(blk))}, blk, rows)
}

// encodeColumn builds c's block in one buffer, element by element.
func encodeColumn(c *dataframe.Column) ([]byte, error) {
	switch c.Kind {
	case dataframe.Float:
		b := make([]byte, 8*len(c.F))
		for i, v := range c.F {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b, nil
	case dataframe.Int:
		b := make([]byte, 8*len(c.I))
		for i, v := range c.I {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
		return b, nil
	case dataframe.String:
		b := make([]byte, 0, EncodedSize(c))
		for _, s := range c.S {
			b = binary.AppendUvarint(b, uint64(len(s)))
			b = append(b, s...)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("unsupported kind %v", c.Kind)
	}
}

// Reader provides selective column access to a gio file. It is safe for
// concurrent use: column blocks are fetched with positionless ReadAt and
// the byte accounting is atomic, so one cached open reader can serve
// parallel loaders (header state is immutable after Open).
type Reader struct {
	f         *os.File
	info      os.FileInfo // fstat of f at Open
	hdr       header
	byName    map[string]int
	bytesRead atomic.Int64 // data-block bytes read so far (excludes header)
}

// Open opens a gio file and parses its header. Every column extent the
// header declares is checked against the opened file's size, so a failed
// fstat fails the open.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("gio: %s: stat: %w", path, err)
	}
	r := &Reader{f: f, info: st, byName: map[string]int{}}
	fileSize := st.Size()
	var m [8]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("gio: %s: short magic: %w", path, err)
	}
	if m != magic {
		f.Close()
		return nil, fmt.Errorf("gio: %s: bad magic", path)
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("gio: %s: short header length: %w", path, err)
	}
	// The declared header length cannot exceed what the file actually
	// holds; allocating it unchecked would let a 12-byte forgery claim a
	// 4 GB header.
	hdrLen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if hdrLen > fileSize-int64(len(magic))-int64(len(lenBuf)) {
		f.Close()
		return nil, fmt.Errorf("gio: %s: header length %d exceeds file size %d", path, hdrLen, fileSize)
	}
	hdrJSON := make([]byte, hdrLen)
	if _, err := io.ReadFull(f, hdrJSON); err != nil {
		f.Close()
		return nil, fmt.Errorf("gio: %s: short header: %w", path, err)
	}
	if err := json.Unmarshal(hdrJSON, &r.hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("gio: %s: header: %w", path, err)
	}
	// Column extents from the header are untrusted until checked against
	// the file: a negative or out-of-range (Offset, Size) would otherwise
	// panic or over-allocate in ReadColumn/ReadBlock.
	for i, c := range r.hdr.Columns {
		if c.Size < 0 || c.Offset < 0 || c.Offset > fileSize || c.Size > fileSize-c.Offset {
			f.Close()
			return nil, fmt.Errorf("gio: %s: column %q extent [%d,+%d) outside file of %d bytes",
				path, c.Name, c.Offset, c.Size, fileSize)
		}
		r.byName[c.Name] = i
	}
	return r, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Stat returns the file information of the file this reader opened, taken
// by fstat at Open. It describes the generation every block the reader
// returns comes from, even if the path has since been renamed over or
// removed — callers stamp what they read with it rather than statting the
// path, which may name another file by then.
func (r *Reader) Stat() os.FileInfo { return r.info }

// NumRows returns the row count recorded in the header.
func (r *Reader) NumRows() int { return r.hdr.NumRows }

// Size returns the total file size in bytes.
func (r *Reader) Size() int64 { return r.info.Size() }

// BytesRead returns the data-block bytes this reader has decoded so far;
// it is the measure behind the paper's "terabytes to gigabytes" claim.
func (r *Reader) BytesRead() int64 { return r.bytesRead.Load() }

// Meta returns the metadata map stored at write time.
func (r *Reader) Meta() map[string]string { return r.hdr.Meta }

// Columns lists the column descriptors in file order.
func (r *Reader) Columns() []ColumnInfo {
	return append([]ColumnInfo(nil), r.hdr.Columns...)
}

// ColumnNames lists the column names in file order.
func (r *Reader) ColumnNames() []string {
	out := make([]string, len(r.hdr.Columns))
	for i, c := range r.hdr.Columns {
		out[i] = c.Name
	}
	return out
}

// Has reports whether the file contains a column named name.
func (r *Reader) Has(name string) bool {
	_, ok := r.byName[name]
	return ok
}

// ColumnInfoOf returns the descriptor of the named column, reporting its
// encoded block size (and offset/CRC) without touching the block — how a
// caller prices a column read before performing it, e.g. the staging
// benchmarks computing expected decode volumes from headers alone.
func (r *Reader) ColumnInfoOf(name string) (ColumnInfo, bool) {
	i, ok := r.byName[name]
	if !ok {
		return ColumnInfo{}, false
	}
	return r.hdr.Columns[i], true
}

// Alloc supplies the vector a read fills (ReadColumnAlloc,
// ReadBlockAlloc): Floats and Ints return room for at least n values, with
// any contents. The read overwrites the first n and hands them out as
// v[:n:n], so nothing appended to the result can reach the rest. A nil
// Alloc allocates with make.
type Alloc interface {
	Floats(n int) []float64
	Ints(n int) []int64
}

// newVector returns an n-value column of a numeric kind whose vector comes
// from a, clipped to n.
func newVector(a Alloc, name string, kind dataframe.Kind, n int) *dataframe.Column {
	if kind == dataframe.Float {
		var v []float64
		if a != nil {
			v = a.Floats(n)[:n:n]
		} else {
			v = make([]float64, n)
		}
		return dataframe.NewFloat(name, v)
	}
	var v []int64
	if a != nil {
		v = a.Ints(n)[:n:n]
	} else {
		v = make([]int64, n)
	}
	return dataframe.NewInt(name, v)
}

// ReadColumn seeks to, verifies and decodes exactly one column block,
// returning the column and the encoded block bytes read. It is the
// per-column partial-read primitive the staging cache builds on: a cache
// that already holds some of a file's columns fetches only the absent ones,
// never the whole file. Safe for concurrent use with other reads on the
// same Reader.
//
// A numeric column on a little-endian host costs one allocation, the
// vector itself: its size is checked against the header's row count
// first, the block is read straight into the vector's bytes, and the
// CRC-32C is computed over those same bytes before the column is returned.
// String columns and big-endian hosts read the block into a buffer and
// decode it.
func (r *Reader) ReadColumn(name string) (*dataframe.Column, int64, error) {
	return r.ReadColumnAlloc(name, nil)
}

// ReadColumnAlloc is ReadColumn with the numeric vector taken from a
// instead of allocated: the same checks, the same read straight into the
// vector's bytes and the same CRC-32C over them. On a failed read the
// vector a supplied is left to the caller. A nil a is ReadColumn.
func (r *Reader) ReadColumnAlloc(name string, a Alloc) (*dataframe.Column, int64, error) {
	i, ok := r.byName[name]
	if !ok {
		return nil, 0, &dataframe.ColumnError{Name: name, Available: r.ColumnNames()}
	}
	info := r.hdr.Columns[i]
	// Size by division: 8*NumRows overflows for a corrupt header. A block
	// that does not fit its rows takes the decode path, which reports the
	// mismatch after the CRC check, as it always has.
	if NativeLayout(info.Kind) && info.Size <= math.MaxInt && info.Size%8 == 0 && info.Size/8 == int64(r.hdr.NumRows) {
		col := newVector(a, name, info.Kind, r.hdr.NumRows)
		blk, _ := VectorBlock(col)
		if err := r.readVerified(info, blk); err != nil {
			return nil, 0, err
		}
		return col, info.Size, nil
	}
	blk := make([]byte, info.Size)
	if err := r.readVerified(info, blk); err != nil {
		return nil, 0, err
	}
	col, err := decodeColumn(info, blk, r.hdr.NumRows)
	if err != nil {
		return nil, 0, fmt.Errorf("gio: decode %q: %w", name, err)
	}
	return col, info.Size, nil
}

// ReadBlock fetches the named column's raw encoded block, CRC-verified but
// not decoded. It is the transfer primitive for callers that move blocks
// between stores without materializing columns — the stage cache's disk
// tier prefetches sibling columns this way, paying the read but deferring
// the decode until (unless) the column is actually requested. The bytes
// count toward BytesRead like any other block fetch. Safe for concurrent
// use with other reads on the same Reader.
func (r *Reader) ReadBlock(name string) (ColumnInfo, []byte, error) {
	return r.ReadBlockAlloc(name, nil)
}

// ReadBlockAlloc is ReadBlock with a numeric block read into the bytes of
// a vector taken from a (Size/8 values of the column's kind) when
// NativeLayout holds and the block is a whole number of values; other
// blocks are allocated as ReadBlock allocates them. A nil a is ReadBlock.
func (r *Reader) ReadBlockAlloc(name string, a Alloc) (ColumnInfo, []byte, error) {
	i, ok := r.byName[name]
	if !ok {
		return ColumnInfo{}, nil, &dataframe.ColumnError{Name: name, Available: r.ColumnNames()}
	}
	info := r.hdr.Columns[i]
	var blk []byte
	if a != nil && NativeLayout(info.Kind) && info.Size <= math.MaxInt && info.Size%8 == 0 {
		blk, _ = VectorBlock(newVector(a, name, info.Kind, int(info.Size/8)))
	} else {
		blk = make([]byte, info.Size)
	}
	if err := r.readVerified(info, blk); err != nil {
		return ColumnInfo{}, nil, err
	}
	return info, blk, nil
}

// readVerified reads info's block into blk, which is info.Size bytes, and
// checks its CRC-32C.
func (r *Reader) readVerified(info ColumnInfo, blk []byte) error {
	if _, err := r.f.ReadAt(blk, info.Offset); err != nil {
		return fmt.Errorf("gio: read block %q: %w", info.Name, err)
	}
	r.bytesRead.Add(info.Size)
	if got := crc32.Checksum(blk, castagnoli); got != info.CRC {
		return fmt.Errorf("gio: column %q: CRC mismatch (file corrupt): got %08x want %08x", info.Name, got, info.CRC)
	}
	return nil
}

// ReadColumns reads only the named columns into a frame, verifying each
// block's CRC. Unrequested columns are not touched on disk.
func (r *Reader) ReadColumns(names ...string) (*dataframe.Frame, error) {
	out := dataframe.New()
	for _, name := range names {
		col, _, err := r.ReadColumn(name)
		if err != nil {
			return nil, err
		}
		if err := out.AddColumn(col); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReadAll reads every column in file order.
func (r *Reader) ReadAll() (*dataframe.Frame, error) {
	return r.ReadColumns(r.ColumnNames()...)
}

func decodeColumn(info ColumnInfo, blk []byte, nrows int) (*dataframe.Column, error) {
	switch info.Kind {
	case dataframe.Float:
		if nrows < 0 || len(blk) != 8*nrows {
			return nil, fmt.Errorf("float block size %d != 8*%d", len(blk), nrows)
		}
		vals := make([]float64, nrows)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(blk[8*i:]))
		}
		return dataframe.NewFloat(info.Name, vals), nil
	case dataframe.Int:
		if nrows < 0 || len(blk) != 8*nrows {
			return nil, fmt.Errorf("int block size %d != 8*%d", len(blk), nrows)
		}
		vals := make([]int64, nrows)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(blk[8*i:]))
		}
		return dataframe.NewInt(info.Name, vals), nil
	case dataframe.String:
		if nrows < 0 {
			return nil, fmt.Errorf("negative row count %d", nrows)
		}
		// Every encoded string row costs at least one byte (its uvarint
		// length), so a header claiming more rows than the block has bytes
		// is corrupt; bounding the initial capacity keeps a forged row
		// count from allocating unbounded memory up front.
		capHint := nrows
		if capHint > len(blk) {
			capHint = len(blk)
		}
		vals := make([]string, 0, capHint)
		rest := blk
		for len(vals) < nrows {
			n, w := binary.Uvarint(rest)
			if w <= 0 || uint64(len(rest)-w) < n {
				return nil, fmt.Errorf("string block truncated at row %d", len(vals))
			}
			vals = append(vals, string(rest[w:w+int(n)]))
			rest = rest[w+int(n):]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("string block has %d trailing bytes", len(rest))
		}
		return dataframe.NewString(info.Name, vals), nil
	default:
		return nil, fmt.Errorf("unsupported kind %v", info.Kind)
	}
}
