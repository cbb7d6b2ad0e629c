package stage

import (
	"fmt"
	"unsafe"

	"infera/internal/dataframe"
)

// hostLittleEndian gates the mmap-cast promotion path: the gio block
// encoding is 8-byte little-endian, so only on a little-endian host is an
// encoded numeric payload bit-identical to the in-memory vector.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// castColumn views an 8-aligned little-endian numeric payload as a column
// vector without copying or decoding — the zero-cost half of promotion.
// The payload must stay immutable and mapped for the vector's lifetime,
// which is exactly the contract shared cache vectors already carry via
// MarkShared: the disk tier never unmaps a mapping it cast from, and
// when it releases the mapping's pages a later read re-faults the same
// bytes from the never-rewritten block file.
func castColumn(name string, kind dataframe.Kind, payload []byte, rows int) (*dataframe.Column, error) {
	// Compare by division: 8*rows overflows for a corrupt header's rows.
	if rows < 0 || len(payload)%8 != 0 || len(payload)/8 != rows {
		return nil, fmt.Errorf("stage: %s block size %d != 8*%d", kind, len(payload), rows)
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(payload)))%8 != 0 {
		return nil, fmt.Errorf("stage: block payload misaligned")
	}
	if rows == 0 {
		switch kind {
		case dataframe.Float:
			return dataframe.NewFloat(name, nil), nil
		case dataframe.Int:
			return dataframe.NewInt(name, nil), nil
		}
	}
	switch kind {
	case dataframe.Float:
		return dataframe.NewFloat(name, unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(payload))), rows)), nil
	case dataframe.Int:
		return dataframe.NewInt(name, unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(payload))), rows)), nil
	default:
		return nil, fmt.Errorf("stage: kind %s not castable", kind)
	}
}
