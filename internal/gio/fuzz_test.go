package gio

import (
	"os"
	"path/filepath"
	"testing"

	"infera/internal/dataframe"
)

func fuzzSeedColumns() []*dataframe.Column {
	return []*dataframe.Column{
		dataframe.NewFloat("f", []float64{1.5, -2.25, 0, 1e300}),
		dataframe.NewInt("i", []int64{0, -1, 1 << 40, 42}),
		dataframe.NewString("s", []string{"", "a", "long string value", "x\ny"}),
	}
}

// FuzzGioDecode throws arbitrary bytes at both decode surfaces: the raw
// column-block decoder and the full file Reader. Neither may panic or
// over-allocate, whatever the input claims about sizes.
func FuzzGioDecode(f *testing.F) {
	for _, c := range fuzzSeedColumns() {
		blk, err := EncodeBlock(c)
		if err != nil {
			f.Fatal(err)
		}
		n := 0
		switch c.Kind {
		case dataframe.Float:
			n = len(c.F)
		case dataframe.Int:
			n = len(c.I)
		case dataframe.String:
			n = len(c.S)
		}
		f.Add(blk, uint8(c.Kind), n)
	}
	// A whole well-formed file as a seed so the fuzzer learns the header
	// shape for the Open path below.
	dir := f.TempDir()
	fr := dataframe.New()
	for _, c := range fuzzSeedColumns() {
		if err := fr.AddColumn(c); err != nil {
			f.Fatal(err)
		}
	}
	path := filepath.Join(dir, "seed.gio")
	if err := WriteFile(path, fr, map[string]string{"k": "v"}); err != nil {
		f.Fatal(err)
	}
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fileBytes, uint8(0), 4)

	f.Fuzz(func(t *testing.T, data []byte, kindRaw uint8, rows int) {
		if len(data) > 1<<20 || rows > 1<<24 {
			return
		}
		kind := dataframe.Kind(kindRaw % 3)
		col, err := DecodeBlock("fuzz", kind, data, rows)
		if err == nil {
			// A successful decode must honour its row-count contract.
			got := 0
			switch col.Kind {
			case dataframe.Float:
				got = len(col.F)
			case dataframe.Int:
				got = len(col.I)
			case dataframe.String:
				got = len(col.S)
			}
			if got != rows {
				t.Fatalf("DecodeBlock returned %d rows, want %d", got, rows)
			}
		}

		// Same bytes as a whole file through the Reader path.
		p := filepath.Join(t.TempDir(), "in.gio")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err != nil {
			return
		}
		defer r.Close()
		// Whatever column ReadColumn accepts — read straight into the
		// vector for numeric kinds — must equal the copy decode of the same
		// block, bit for bit.
		for _, name := range r.ColumnNames() {
			got, n, err := r.ReadColumn(name)
			if err != nil {
				continue
			}
			info, blk, err := r.ReadBlock(name)
			if err != nil {
				t.Fatalf("ReadBlock rejected column %q that ReadColumn accepted: %v", name, err)
			}
			want, err := DecodeBlock(name, info.Kind, blk, r.NumRows())
			if err != nil {
				t.Fatalf("DecodeBlock rejected column %q that ReadColumn accepted: %v", name, err)
			}
			if n != info.Size || !sameBits(got, want) {
				t.Fatalf("column %q: ReadColumn (%d bytes) differs from DecodeBlock of ReadBlock", name, n)
			}
			// Read again into a dirty vector with spare capacity, as a
			// reused free-list buffer is: the same bits, clipped.
			again, _, err := r.ReadColumnAlloc(name, dirtyAlloc{spare: 3})
			if err != nil {
				t.Fatalf("column %q: ReadColumnAlloc rejected what ReadColumn accepted: %v", name, err)
			}
			if !sameBits(again, want) || cap(again.F) != len(again.F) || cap(again.I) != len(again.I) {
				t.Fatalf("column %q: read into a reused vector differs from DecodeBlock of ReadBlock", name)
			}
		}
		_, _ = r.ReadAll()
	})
}

// TestGioRoundTripAfterHardening proves the legitimate encode/decode path
// still works with the new header and extent validation in place.
func TestGioRoundTripAfterHardening(t *testing.T) {
	fr := dataframe.New()
	for _, c := range fuzzSeedColumns() {
		if err := fr.AddColumn(c); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "rt.gio")
	if err := WriteFile(path, fr, nil); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !dataframe.Equal(fr, got) {
		t.Fatalf("round trip diverged:\n%v\nvs\n%v", fr, got)
	}
}

// TestGioRejectsCorruptHeaders locks in the pre-allocation validation:
// truncated files, oversized header claims and out-of-range column
// extents must error instead of allocating or panicking.
func TestGioRejectsCorruptHeaders(t *testing.T) {
	fr := dataframe.New()
	if err := fr.AddColumn(dataframe.NewFloat("f", []float64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.gio")
	if err := WriteFile(good, fr, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":             {},
		"magic only":        raw[:8],
		"truncated header":  raw[:14],
		"huge header claim": append(append([]byte{}, raw[:8]...), 0xff, 0xff, 0xff, 0x7f),
	}
	for name, data := range cases {
		p := filepath.Join(dir, name+".gio")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(p); err == nil {
			r.Close()
			t.Fatalf("%s: Open succeeded, want error", name)
		}
	}
}
