package provenance

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/sqldb"
	"infera/internal/stage"
)

// recordFrameRows is the projection's size: two snapshots of
// recordFrameRows/2 halos, about a multi-snapshot SQL step's table.
const recordFrameRows = 20_000

// writeHalos writes one snapshot of rows halos with an Int tag and three
// Float columns of full-precision values.
func writeHalos(b *testing.B, path string, rows, seed int) {
	b.Helper()
	tag := make([]int64, rows)
	mass := make([]float64, rows)
	vel := make([]float64, rows)
	x := make([]float64, rows)
	for i := range tag {
		tag[i] = int64(seed*1_000_000 + i)
		mass[i] = 1e13 * (1 + float64(i%977)/3.7) / float64(seed+i%13+1)
		vel[i] = 250 + float64(i%4099)/7
		x[i] = float64(i%1021) * 0.123456789
	}
	f := dataframe.MustFromColumns(dataframe.NewInt("fof_halo_tag", tag),
		dataframe.NewFloat("fof_halo_mass", mass), dataframe.NewFloat("vel_disp", vel),
		dataframe.NewFloat("fof_halo_center_x", x))
	if err := gio.WriteFile(path, f, nil); err != nil {
		b.Fatal(err)
	}
}

// stagedProjection loads both snapshots through a lease of a fresh cache,
// stages them as one two-segment table and runs the SQL step's projection
// over it. The caller unpins.
func stagedProjection(b *testing.B, paths []string) (*dataframe.Frame, *stage.Lease) {
	b.Helper()
	l := stage.New(stage.DefaultBudgetBytes, 0).Pin()
	cols := []string{"fof_halo_tag", "fof_halo_mass", "vel_disp", "fof_halo_center_x"}
	var frames []*dataframe.Frame
	for _, res := range l.LoadAll([]stage.Request{{Path: paths[0], Columns: cols}, {Path: paths[1], Columns: cols}}) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		frames = append(frames, res.Frame)
	}
	db := sqldb.New()
	if err := db.BulkAppend("halos", frames...); err != nil {
		b.Fatal(err)
	}
	f, err := db.Query("SELECT fof_halo_tag, fof_halo_mass, vel_disp, fof_halo_center_x FROM halos")
	if err != nil {
		b.Fatal(err)
	}
	return f, l
}

// BenchmarkRecordFrame records a 20,000-row two-segment staged projection
// as the SQL step does. "miss" formats and hashes every cell (a fresh
// cache each time, so its columns' origins are new); "hit" records the
// same table again, which records a reference to the trail's bytes. Both
// start a new session every 16 records and remove the last one, so a
// hit's source is removed now and then and the next record formats
// again. disk_B/op is the change in the bytes the file system allocates
// to the store's segments (st_blocks), per record.
func BenchmarkRecordFrame(b *testing.B) {
	defer VerifyRepeats(verifyRepeats.Swap(false))
	dir := b.TempDir()
	paths := []string{filepath.Join(dir, "s1.gio"), filepath.Join(dir, "s2.gio")}
	for i, p := range paths {
		writeHalos(b, p, recordFrameRows/2, i+1)
	}
	store, err := NewStore(filepath.Join(dir, "sessions"))
	if err != nil {
		b.Fatal(err)
	}
	// session returns the session to record into, starting a new one every
	// 16 records so the log stays small.
	var sess *Session
	session := func(i int) *Session {
		if i%16 == 0 {
			if sess != nil {
				sess.Close()
				store.RemoveSession(sess.ID)
			}
			if sess, err = store.NewSession(fmt.Sprintf("s%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		return sess
	}

	segments := func() int64 {
		names, _ := filepath.Glob(filepath.Join(store.Root, "seg-*"))
		return allocated(names...)
	}
	reportDisk := func(b *testing.B, before int64) {
		if after := segments(); before >= 0 && after >= 0 {
			b.ReportMetric(float64(after-before)/float64(b.N), "disk_B/op")
		}
	}
	b.Run("miss", func(b *testing.B) {
		before := segments()
		defer func() { reportDisk(b, before) }()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := session(i)
			f, l := stagedProjection(b, paths)
			b.StartTimer()
			if _, err := s.RecordFrame("sql", "work", f); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			l.Unpin()
			b.StartTimer()
		}
	})
	b.Run("hit", func(b *testing.B) {
		f, l := stagedProjection(b, paths)
		defer l.Unpin()
		if _, err := session(0).RecordFrame("sql", "work", f); err != nil {
			b.Fatal(err)
		}
		before := segments()
		defer func() { reportDisk(b, before) }()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := session(i + 1)
			b.StartTimer()
			if _, err := s.RecordFrame("sql", "work", f); err != nil {
				b.Fatal(err)
			}
		}
	})
	if sess != nil {
		sess.Close()
	}
}

// warmAskSizes are the artifact sizes, in order, of a computed top-20
// halos ask over a small generated ensemble (plan, SQL, tables,
// checkpoints, script and summary), with the SQL step's table at 16 KB
// and one more checkpoint.
var warmAskSizes = []int{292, 1447, 1447, 906, 116, 1798, 1798, 93, 654, 1986,
	1986, 108, 654, 654, 2163, 2163, 436, 2162, 16 << 10, 2162}

// BenchmarkSessionTrail times one ask's trail: NewSession, 20 records of
// a warm ask's sizes, Close. A first session runs before the timer, as a
// daemon's first ask does, and inodes/op counts the directory entries each
// later one adds under the store.
func BenchmarkSessionTrail(b *testing.B) {
	store, err := NewStore(filepath.Join(b.TempDir(), "sessions"))
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, len(warmAskSizes))
	for i, n := range warmAskSizes {
		payloads[i] = make([]byte, n)
		for j := range payloads[i] {
			payloads[i][j] = byte('a' + (i+j)%26)
		}
	}
	ask := func(i int) {
		sess, err := store.NewSession(fmt.Sprintf("q-%06d", i))
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range payloads {
			if _, err := sess.Record("agent", "data", fmt.Sprintf("a%d", j), p); err != nil {
				b.Fatal(err)
			}
		}
		if err := sess.Close(); err != nil {
			b.Fatal(err)
		}
	}
	entries := func() int {
		n := 0
		filepath.WalkDir(store.Root, func(string, fs.DirEntry, error) error { n++; return nil })
		return n
	}
	ask(0)
	before := entries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(i + 1)
	}
	b.StopTimer()
	b.ReportMetric(float64(entries()-before)/float64(b.N), "inodes/op")
}
