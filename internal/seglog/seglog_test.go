package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// keepAll indexes every block a scan finds.
func keepAll(bs []*Block) []*Block { return bs }

// TestOpenDeletesSegmentWithoutBlock: Open deletes a segment that holds no
// live block (cut before its first manifest line, or every block
// tombstoned) unless another Log holds it in its pool.
func TestOpenDeletesSegmentWithoutBlock(t *testing.T) {
	root := t.TempDir()
	write := func(name, log, man string) {
		for ext, data := range map[string]string{".log": log, ".jsonl": man} {
			if err := os.WriteFile(filepath.Join(root, name+ext), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("seg-0-1-1", "0123456789", "")
	write("seg-0-1-2", "ab", `{"session":"s","base":0}`+"\n"+`{"file":"trail.log","bytes":2}`+"\n"+`{"tombstone":"s","base":0}`+"\n")
	write("seg-0-1-3", "cd", `{"session":"t","base":0}`+"\n"+`{"file":"trail.log","bytes":2}`+"\n")
	held, _, err := Open(root, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	held.Lock()
	g, err := held.Take(t)
	if err == nil {
		err = held.Release(g)
	}
	held.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	_, blocks, err := Open(root, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0].ID != "t" {
		t.Fatalf("blocks %v, want t's", blocks)
	}
	names, _ := filepath.Glob(filepath.Join(root, "seg-*"))
	want := []string{"seg-0-1-3.jsonl", "seg-0-1-3.log", filepath.Base(g.Path()) + ".jsonl", filepath.Base(g.Path()) + ".log"}
	if !haveLocks {
		t.Skip("no segment locks: a held segment cannot be told from a free one")
	}
	if len(names) != len(want) {
		t.Fatalf("segments left %v, want %v", names, want)
	}
	for _, w := range want {
		if _, err := os.Stat(filepath.Join(root, w)); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
	held.Close()
}

// TestFreedRetiredSegmentDeleted: Append places each record at an
// 8-aligned base with its header and entry line, and a retired segment is
// deleted once its last record is dropped, where the process can tell no
// other holds it, punching or not.
func TestFreedRetiredSegmentDeleted(t *testing.T) {
	root := t.TempDir()
	l, _, err := Open(root, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	g, a, err := l.Append("a", []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	g2, b, err := l.Append("b", []byte("de"), []byte("f"))
	if err != nil || g2 != g || a != 0 || b != 8 {
		t.Fatalf("appends at %d and %d (same segment %v): %v", a, b, g2 == g, err)
	}
	if log, _ := os.ReadFile(g.Path() + ".log"); string(log) != "abc\x00\x00\x00\x00\x00def" {
		t.Fatalf("log %q", log)
	}
	_, blocks, err := Open(root, keepAll)
	if err != nil || len(blocks) != 2 || blocks[1].ID != "b" || blocks[1].Base != 8 || blocks[1].Claimed != 3 {
		t.Fatalf("scan found %+v: %v", blocks, err)
	}
	l.Lock()
	defer l.Unlock()
	if err := l.Retire(g); err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		id   string
		base int64
	}{{"a", a}, {"b", b}} {
		if err := l.Drop(g, d.id, d.base, 3); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := filepath.Glob(filepath.Join(root, "seg-*"))
	if !haveLocks {
		t.Skip("no segment locks: a retired segment is never deleted")
	}
	if len(names) != 0 {
		t.Fatalf("segments left %v", names)
	}
}

// TestHoldRefusesAnotherHolder: Hold fails while another open file (as
// another process's would) holds the root, and succeeds again and again
// in this process once it holds it.
func TestHoldRefusesAnotherHolder(t *testing.T) {
	if !haveLocks {
		t.Skip("no locks: Hold refuses no one")
	}
	root := t.TempDir()
	other, err := os.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := lockExclusive(other); err != nil {
		t.Fatal(err)
	}
	if err := Hold(root); !errors.Is(err, errHeld) {
		t.Fatalf("Hold of a root another holds: %v", err)
	}
	other.Close()
	for i := 0; i < 2; i++ {
		if err := Hold(root); err != nil {
			t.Fatalf("Hold %d: %v", i, err)
		}
	}
	other, _ = os.Open(root)
	defer other.Close()
	if err := lockExclusive(other); !errors.Is(err, errHeld) {
		t.Fatalf("another lock of a held root: %v", err)
	}
}

// TestDropWaitsForReferrers: a block's reference line counts a referrer
// of the span it names. Dropping the span's block tombstones it and
// punches the rest of its range at once, but holds the span until its
// last referrer goes; a reopen counts the line again and holds the span
// of the tombstoned block, and Unref then frees it.
func TestDropWaitsForReferrers(t *testing.T) {
	root := t.TempDir()
	l, _, err := Open(root, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	g, a, err := l.Append("a", []byte("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append("b", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := appendLine(g.Path()+".jsonl", fmt.Appendf(nil, "{\"file\":%q,\"offset\":%d,\"bytes\":3}\n", g.Name(), a+4)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	punched := func(want string) {
		t.Helper()
		if log, _ := os.ReadFile(g.Path() + ".log"); runtime.GOOS == "linux" && string(log[:10]) != want {
			t.Fatalf("a's range reads %q, want %q", log[:10], want)
		}
	}
	for round := 0; round < 2; round++ {
		l, blocks, err := Open(root, keepAll)
		if err != nil {
			t.Fatal(err)
		}
		var b, ab *Block
		for _, blk := range blocks {
			if blk.ID == "b" {
				b = blk
			} else {
				ab = blk
			}
		}
		if b == nil || len(b.Refs) != 1 || b.Refs[0].Off != a+4 || b.Refs[0].N != 3 {
			t.Fatalf("round %d: blocks %+v: want b's one reference counted", round, blocks)
		}
		sp := b.Refs[0]
		l.Lock()
		if round == 0 {
			if l.Held(sp) || l.HeldBytes() != 0 {
				t.Fatal("a span of a live block is held")
			}
			if err := l.Drop(sp.Seg, "a", a, ab.Limit); err != nil {
				t.Fatal(err)
			}
		}
		if !l.Held(sp) || l.HeldBytes() != 3 {
			t.Fatalf("round %d: the span of a dropped block is not held (%d bytes)", round, l.HeldBytes())
		}
		punched("\x00\x00\x00\x00456\x00\x00\x00")
		if round == 1 {
			if err := l.Unref(sp); err != nil {
				t.Fatal(err)
			}
			if l.Held(sp) || l.HeldBytes() != 0 {
				t.Fatal("a span with no referrer left is held")
			}
			punched(string(make([]byte, 10)))
		}
		l.Unlock()
		l.Close()
	}
}
