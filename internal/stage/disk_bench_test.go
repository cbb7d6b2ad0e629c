package stage

import (
	"testing"

	"infera/internal/dataframe"
	"infera/internal/gio"
)

// BenchmarkDiskTier times the disk tier's three steps for a 60,000-row
// Float block: a put (the write-through), a promotion by mmap cast of a
// block nothing has mapped yet, and a re-promotion from the mapping a
// promotion made.
func BenchmarkDiskTier(b *testing.B) {
	const rows = 60_000
	vals := make([]float64, rows)
	for i := range vals {
		vals[i] = 1e13 * float64(i%977) / 3.7
	}
	payload, err := gio.EncodeBlock(dataframe.NewFloat("fof_halo_mass", vals))
	if err != nil {
		b.Fatal(err)
	}
	k := key{path: "/ens/run0/step99.gio", col: "fof_halo_mass"}
	st := stamp{mtime: 1, size: 2}
	tier := func(b *testing.B) *diskTier {
		dt, err := newDiskTier(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(dt.retire)
		return dt
	}
	put := func(b *testing.B, dt *diskTier) {
		if err := dt.put(k, st, dataframe.Float, rows, payload); err != nil {
			b.Fatal(err)
		}
	}
	promote := func(b *testing.B, dt *diskTier) {
		e, err := dt.promote(k, st)
		if err != nil || e == nil || e.m == nil {
			b.Fatalf("promotion by mmap cast: entry %v, err %v", e, err)
		}
		e.m.unref()
	}
	b.Run("put", func(b *testing.B) {
		dt := tier(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			put(b, dt)
		}
	})
	b.Run("promote", func(b *testing.B) {
		dt := tier(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			put(b, dt)
			b.StartTimer()
			promote(b, dt)
		}
	})
	b.Run("repromote", func(b *testing.B) {
		dt := tier(b)
		put(b, dt)
		promote(b, dt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			promote(b, dt)
		}
	})
}
