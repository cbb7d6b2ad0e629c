package service

import (
	"strings"
	"testing"

	"infera/internal/stage"
)

// TestShardScriptLimitOverrides proves the per-shard script budget plumbing
// end to end: a shard registered with a starvation-level fuel override
// surfaces a structured TimeoutError in its answer, while a sibling shard
// with default limits — and the registry as a whole — keeps answering.
func TestShardScriptLimitOverrides(t *testing.T) {
	st := stage.New(1<<30, 4)
	reg := NewRegistry(RegistryConfig{
		Defaults: Config{
			Workers:  2,
			Seed:     1,
			NewModel: errFreeModel,
			Stage:    st,
		},
		WorkDir:       t.TempDir(),
		MaxLiveShards: 4,
	})
	t.Cleanup(func() { reg.Close() })

	if _, err := reg.RegisterWith("tight", testEnsembleSeeded(t, 3), ShardOptions{
		ScriptFuel: 5, // every analysis script exceeds this immediately
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("roomy", testEnsembleSeeded(t, 11)); err != nil {
		t.Fatal(err)
	}

	// The starved shard answers in-band with the structured budget error —
	// no panic, no hung worker.
	res, err := reg.Ask("tight", AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatalf("ask tight: transport error %v", err)
	}
	if res.Error == "" {
		t.Fatalf("starved shard produced a clean answer: %+v", res)
	}
	if !strings.Contains(res.Error, "TimeoutError: script exceeded its instruction budget") {
		t.Fatalf("error = %q, want structured fuel TimeoutError", res.Error)
	}

	// The sibling shard with default limits is unaffected.
	ok, err := reg.Ask("roomy", AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatalf("ask roomy: %v", err)
	}
	if ok.Error != "" || ok.Rows != 20 {
		t.Fatalf("roomy shard = %+v", ok)
	}

	// The starved shard itself still serves requests after the failure.
	again, err := reg.Ask("tight", AskRequest{Question: "How many friends-of-friends halos does timestep 99 of simulation 0 have?"})
	if err != nil {
		t.Fatalf("tight shard stopped serving: %v", err)
	}
	_ = again // in-band error is acceptable; the shard must simply answer
}

// TestShardScriptLimitValidation locks in rejection of negative overrides,
// of a timeout whose Duration would overflow and of a worker count past
// maxShardWorkers.
func TestShardScriptLimitValidation(t *testing.T) {
	st := stage.New(1<<30, 4)
	reg := NewRegistry(RegistryConfig{
		Defaults: Config{Workers: 1, Seed: 1, NewModel: errFreeModel, Stage: st},
		WorkDir:  t.TempDir(),
	})
	t.Cleanup(func() { reg.Close() })

	dir := testEnsembleSeeded(t, 3)
	for _, opts := range []ShardOptions{
		{ScriptFuel: -1},
		{ScriptMemBytes: -1},
		{ScriptTimeoutMS: -1},
		{ScriptTimeoutMS: 1 << 62}, // wraps to a zero MaxWall
		{ScriptTimeoutMS: maxScriptTimeoutMS + 1},
		{Workers: maxShardWorkers + 1},
	} {
		if _, err := reg.RegisterWith("bad", dir, opts); err == nil {
			t.Fatalf("opts %+v: out-of-range override accepted", opts)
		}
	}
	if _, err := reg.RegisterWith("slow", dir, ShardOptions{ScriptTimeoutMS: maxScriptTimeoutMS}); err != nil {
		t.Fatalf("largest timeout rejected: %v", err)
	}
}
