//go:build linux

package service

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestRegistryRegisterBlockedLoadHoldsNoLock registers a dir whose
// ensemble.json is a FIFO, so the catalog read blocks until a writer
// closes it. While it blocks, the registry's lock must stay free: Health
// and an ask on another live shard return.
func TestRegistryRegisterBlockedLoadHoldsNoLock(t *testing.T) {
	reg, _ := testRegistry(t, 2, map[string]int64{"live": 3})
	if res, err := reg.Ask("live", AskRequest{Question: topHalosQ}); err != nil || res.Error != "" {
		t.Fatalf("spin-up ask: %v %+v", err, res)
	}

	stuck := t.TempDir()
	fifo := filepath.Join(stuck, "ensemble.json")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	registered := make(chan error, 1)
	go func() {
		_, err := reg.Register("stuck", stuck)
		registered <- err
	}()

	// A non-blocking open for writing succeeds only once the reader has
	// the FIFO open, that is, once Register is inside the catalog read.
	// Holding the write end keeps that read blocked.
	var w *os.File
	for deadline := time.Now().Add(10 * time.Second); ; {
		var err error
		w, err = os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0)
		if err == nil {
			break
		}
		if !errors.Is(err, syscall.ENXIO) || time.Now().After(deadline) {
			t.Fatalf("open FIFO for writing: %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			f()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			w.Close()
			t.Fatalf("%s blocked behind a Register stuck in its catalog read", what)
		}
	}
	within("Health", func() {
		if h := reg.Health(); h.Live != 1 {
			t.Errorf("health = %+v", h)
		}
	})
	within("ask on another shard", func() {
		if res, err := reg.Ask("live", AskRequest{Question: topHalosQ, Seed: 7}); err != nil || res.Error != "" {
			t.Errorf("ask: %v %+v", err, res)
		}
	})
	select {
	case err := <-registered:
		t.Fatalf("Register returned while its catalog read should block: %v", err)
	default:
	}

	// EOF on an empty catalog: the registration fails and names no shard.
	w.Close()
	select {
	case err := <-registered:
		if err == nil {
			t.Fatal("registering an empty catalog succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Register never returned after the writer closed")
	}
	if _, err := reg.Ensemble("stuck"); !errors.Is(err, ErrUnknownEnsemble) {
		t.Errorf("failed registration left a shard: %v", err)
	}
}
