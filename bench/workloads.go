package main

import (
	"fmt"
	"math/rand"
	"os"

	"infera/internal/eval"
	"infera/internal/hacc"
	"infera/internal/stage"
)

// ask is one generated request. key names the question in the golden file
// (its text with the fixture's own numbers in it); seed is the model seed,
// unique per ask unless the workload repeats pairs on purpose.
type ask struct {
	key      string
	question string
	seed     int64
	// rewrite, when set, is a snapshot file the client replaces in place
	// with its spare copy (same bytes, new inode and mtime) just before
	// sending this ask.
	rewrite, spare string
}

// replaceSnapshot performs the ask's rewrite, if it has one. A failed
// replacement is logged, not fatal: the ask still gets a correct answer, and
// the traced pass's validity check fails a run without invalidations.
func (a ask) replaceSnapshot() {
	if a.rewrite == "" {
		return
	}
	if err := swapInPlace(a.rewrite, a.spare); err != nil {
		fmt.Fprintf(os.Stderr, "bench: replace %s: %v\n", a.rewrite, err)
	}
}

// workload describes one traffic mix. Everything that differs between the
// four is a field here; the driver loop, the environment builder and the
// traced pass are shared.
type workload struct {
	name string
	why  string
	fx   fixture
	// asks is the fixed ask count of a suite run (a whole number of
	// cycles), sized for a 10-20 s window on the commit that added this.
	asks int
	// cycle is the period of the question sequence; a run always measures
	// whole cycles so every run of a workload sees the same mix.
	cycle int
	// stageBudget is the stage cache's memory budget in bytes.
	stageBudget int64
	// diskTier attaches the persistent block store (with prefetch, as
	// inferad -stage-dir does), restarts over it during set-up and replaces
	// snapshots under load.
	diskTier bool
	// routed puts two nodes behind a fleet.Router and asks through it.
	routed bool
	// repeatPairs, when > 0, re-asks that many fixed (question, seed) pairs
	// so every timed ask is an answer-cache hit.
	repeatPairs int
	// gen builds the run's ask sequence for a workload seed.
	gen func(w *workload, cat *hacc.Catalog, seed int64) askSeq
	// universe lists every question any seed can generate — what the
	// golden file has to cover.
	universe func(cat *hacc.Catalog) []ask
}

// askSeq is a deterministic ask sequence: at(i) is a pure function of the
// workload seed and i, so a run bounded by time and one bounded by count
// issue the same prefix. warm lists one ask per distinct question, answered
// during set-up.
type askSeq struct {
	at   func(i int) ask
	warm []ask
}

const smallStageBudget = 2 << 20

var workloads = []*workload{
	{
		name: "warm_mixed",
		why:  "shared-daemon steady state: 9 analysis questions, working set resident, unique seeds; sandbox/script/dataframe/provenance/sqldb do the work, gio/stage almost none",
		fx:   ensWide, asks: 450, cycle: 9, stageBudget: stage.DefaultBudgetBytes, gen: genWarmMixed, universe: mixedUniverse,
	},
	{
		name: "cold_scan",
		why:  "working set far above a 2 MB stage budget, top-k over 14 halo columns of both runs that SQL cuts to k rows: the stage miss path and its gio decode are the largest share of an ask, script does little",
		fx:   ensDeep, asks: 600, cycle: 12, stageBudget: smallStageBudget, gen: genColdScan, universe: wideTopKUniverse,
	},
	{
		name: "cached_routed",
		why:  "24 warmed (question, seed) pairs re-asked through a 2-node fleet router: only answer cache, fingerprint, HTTP+JSON, client and the fleet hop run; data layers idle",
		fx:   ensWide, asks: 60000, cycle: 24, stageBudget: stage.DefaultBudgetBytes, routed: true, repeatPairs: 24, gen: genCachedRouted, universe: bankUniverse,
	},
	{
		name: "disk_churn",
		why:  "cold_scan's asks over a disk tier after a restart, 2 MB memory budget, one snapshot replaced every 24 asks: persist, demote/promote, watch invalidation and prefetch run beside the reads",
		fx:   ensDeep, asks: 1200, cycle: 24, stageBudget: smallStageBudget, diskTier: true, gen: genDiskChurn, universe: wideTopKUniverse,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bankQuestion returns the evaluation bank's text for id ("q02").
func bankQuestion(id string) string {
	for _, q := range eval.Bank() {
		if q.ID == id {
			return q.Text
		}
	}
	panic("bench: no bank question " + id) // a typo in this file, not an input
}

var topKs = []int{10, 20, 50}

// mixedBank is the bank part of warm_mixed and cached_routed: questions
// spanning three to five plan steps, with and without plots and joins.
var mixedBank = []string{"q02", "q03", "q05", "q06", "q07", "q10", "q14", "q16"}

func bankAsks(ids []string) []ask {
	var out []ask
	for _, id := range ids {
		out = append(out, questionAsk(bankQuestion(id)))
	}
	return out
}

func wideTopKUniverse(cat *hacc.Catalog) []ask {
	return wideTopKCycle(cat, rand.New(rand.NewSource(0)))
}

// topKUniverse is every (sim, step) of the catalog crossed with the three k
// values: the top-k questions warm_mixed can draw.
func topKUniverse(cat *hacc.Catalog) []ask {
	var qs []ask
	for sim := 0; sim < cat.NumRuns(); sim++ {
		for _, step := range cat.Steps() {
			for _, k := range topKs {
				qs = append(qs, questionAsk(topKQuestion(k, step, sim)))
			}
		}
	}
	return qs
}

func bankUniverse(*hacc.Catalog) []ask { return bankAsks(mixedBank) }

func mixedUniverse(cat *hacc.Catalog) []ask {
	return append(bankAsks(mixedBank), topKUniverse(cat)...)
}

func topKQuestion(k, step, sim int) string {
	return fmt.Sprintf("top %d largest halos at timestep %d in simulation %d", k, step, sim)
}

// wideTopKQuestion asks for the whole property record of the k largest
// halos of every run at one step. The loader decodes the 14 named columns
// of each run's snapshot (12 MB on ens_deep) while SQL ranks on one of them
// and hands the script k rows, so the stage miss path with the gio decode
// inside it is the largest share of the ask. topKQuestion decodes two
// columns of one snapshot, and a traced pass put gio+stage at 7 % of such
// an ask, behind retrieval at 60 %; 14 columns of one snapshot came to
// 28-45 %, depending on what a fresh page costs on the box that hour.
func wideTopKQuestion(k, step int) string {
	return fmt.Sprintf("top %d largest halos at timestep %d in all simulations, with their position "+
		"(fof_halo_center_x, fof_halo_center_y, fof_halo_center_z), velocity (fof_halo_mean_vx, fof_halo_mean_vy, "+
		"fof_halo_mean_vz, fof_halo_vel_disp), fof_halo_ke and profile (sod_halo_M500c, sod_halo_R500c, "+
		"sod_halo_MGas500c, sod_halo_cdelta)", k, step)
}

// wideTopKCycle is every step of the catalog crossed with the three k
// values, steps in seed-shuffled order and consecutive asks on different
// steps: 12 distinct questions on ens_deep.
func wideTopKCycle(cat *hacc.Catalog, rng *rand.Rand) []ask {
	steps := append([]int(nil), cat.Steps()...)
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	var out []ask
	for _, k := range topKs {
		for _, step := range steps {
			out = append(out, questionAsk(wideTopKQuestion(k, step)))
		}
	}
	return out
}

// seedBase spreads workload seeds so two runs never share a model seed,
// and keeps clear of 0 (which the service reads as "use the default").
func seedBase(seed int64) int64 { return 1 + (seed&0xffffff)*1_000_000 }

func questionAsk(text string) ask { return ask{key: text, question: text} }

// warmMixedQuestions is warm_mixed's cycle: the eight bank questions plus
// one top-k whose (k, step, sim) the seed picks, in seed-shuffled order.
func warmMixedQuestions(cat *hacc.Catalog, rng *rand.Rand) []ask {
	qs := bankAsks(mixedBank)
	steps := cat.Steps()
	qs = append(qs, questionAsk(topKQuestion(topKs[rng.Intn(len(topKs))], steps[rng.Intn(len(steps))], rng.Intn(cat.NumRuns()))))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func genWarmMixed(w *workload, cat *hacc.Catalog, seed int64) askSeq {
	qs := warmMixedQuestions(cat, rand.New(rand.NewSource(seed)))
	base := seedBase(seed)
	return askSeq{
		warm: qs,
		at: func(i int) ask {
			a := qs[i%len(qs)]
			a.seed = base + int64(i)
			return a
		},
	}
}

func genColdScan(w *workload, cat *hacc.Catalog, seed int64) askSeq {
	qs := wideTopKCycle(cat, rand.New(rand.NewSource(seed)))
	base := seedBase(seed)
	return askSeq{
		warm: qs,
		at: func(i int) ask {
			a := qs[i%len(qs)]
			a.seed = base + int64(i)
			return a
		},
	}
}

// genCachedRouted re-asks 24 fixed (question, seed) pairs: the eight bank
// questions under three model seeds each, so every workload seed warms the
// same set of answers (its tokens and bytes repeat exactly) and only the
// order and the model seeds differ.
func genCachedRouted(w *workload, cat *hacc.Catalog, seed int64) askSeq {
	rng := rand.New(rand.NewSource(seed))
	qs := bankAsks(mixedBank)
	base := seedBase(seed)
	pairs := make([]ask, w.repeatPairs)
	for i := range pairs {
		pairs[i] = qs[i%len(qs)]
		pairs[i].seed = base + int64(i)
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return askSeq{warm: pairs, at: func(i int) ask { return pairs[i%len(pairs)] }}
}

// genDiskChurn is cold_scan's question cycle, twice over per cycle of 24,
// and each cycle starts with the replacement of one halo snapshot, rotating
// over all of them. The two workloads then differ in nothing but the disk
// tier, the restart and the replacements.
func genDiskChurn(w *workload, cat *hacc.Catalog, seed int64) askSeq {
	rng := rand.New(rand.NewSource(seed))
	qs := wideTopKCycle(cat, rng)
	halos := cat.FilesOf(-1, -1, hacc.FileHalos)
	rng.Shuffle(len(halos), func(i, j int) { halos[i], halos[j] = halos[j], halos[i] })
	base := seedBase(seed)
	return askSeq{
		warm: qs,
		at: func(i int) ask {
			a := qs[i%len(qs)]
			a.seed = base + int64(i)
			if i%w.cycle == 0 {
				a.rewrite = cat.AbsPath(halos[(i/w.cycle)%len(halos)])
				a.spare = sparePath(cat.Dir, a.rewrite)
			}
			return a
		},
	}
}
