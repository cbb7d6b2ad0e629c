package service

import (
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// CachedFingerprint must serve from the memo inside the TTL, re-walk after
// expiry, and honor explicit invalidation.
func TestCachedFingerprintTTL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.bin"), []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	const ttl = 80 * time.Millisecond

	fp1, err := CachedFingerprint(dir, ttl)
	if err != nil {
		t.Fatal(err)
	}
	// Change the dir: inside the TTL the memoized value must still serve.
	if err := os.WriteFile(filepath.Join(dir, "b.bin"), []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	fp2, err := CachedFingerprint(dir, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if fp2 != fp1 {
		t.Fatal("memoized fingerprint must serve inside the TTL")
	}
	// After expiry the change is seen.
	time.Sleep(ttl + 20*time.Millisecond)
	fp3, err := CachedFingerprint(dir, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if fp3 == fp1 {
		t.Fatal("expired memo must re-walk and see the change")
	}
	// Explicit invalidation skips the wait.
	if err := os.WriteFile(filepath.Join(dir, "c.bin"), []byte("three"), 0o644); err != nil {
		t.Fatal(err)
	}
	InvalidateFingerprint(dir)
	fp4, err := CachedFingerprint(dir, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if fp4 == fp3 {
		t.Fatal("InvalidateFingerprint must force a re-walk")
	}
	// The direct walk agrees with the memoized value.
	direct, err := Fingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if direct != fp4 {
		t.Fatalf("memo %s != direct %s", fp4, direct)
	}
}

// Concurrent lookups after invalidation single-flight into one walk and
// all agree (-race covers the memo's locking).
func TestCachedFingerprintConcurrent(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.bin"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	InvalidateFingerprint(dir)
	const n = 16
	out := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fp, err := CachedFingerprint(dir, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = fp
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if out[i] != out[0] {
			t.Fatalf("divergent fingerprints: %q vs %q", out[i], out[0])
		}
	}
	// Errors are not memoized: a missing dir fails every time.
	if _, err := CachedFingerprint(filepath.Join(dir, "missing"), time.Second); err == nil {
		t.Fatal("want error for missing dir")
	}
}

// A file or subdirectory that vanishes while the walk is under way (a
// writer's temp file, a snapshot being swapped) must not fail the
// fingerprint, and so the ask; a missing ensemble directory still does.
func TestFingerprintToleratesVanishingFiles(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 64; i++ {
		if err := os.WriteFile(filepath.Join(dir, "stable-"+strconv.Itoa(i)), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		sub := filepath.Join(dir, "swap")
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Errors here are the churn colliding with itself, not the subject.
			_ = os.Mkdir(sub, 0o755)
			for i := 0; i < 16; i++ {
				_ = os.WriteFile(filepath.Join(dir, "tmp-"+strconv.Itoa(i)), nil, 0o644)
				_ = os.WriteFile(filepath.Join(sub, "tmp-"+strconv.Itoa(i)), nil, 0o644)
			}
			for i := 0; i < 16; i++ {
				_ = os.Remove(filepath.Join(dir, "tmp-"+strconv.Itoa(i)))
			}
			_ = os.RemoveAll(sub)
		}
	}()
	for i := 0; i < 300; i++ {
		if _, err := Fingerprint(dir); err != nil {
			t.Errorf("walk %d: %v", i, err)
			break
		}
	}
	close(stop)
	churn.Wait()

	if _, err := Fingerprint(filepath.Join(dir, "no-such-ensemble")); err == nil {
		t.Error("fingerprint of a missing directory succeeded")
	}
}
