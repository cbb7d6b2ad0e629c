// Command infera is the interactive assistant: it loads an ensemble,
// accepts natural-language questions on stdin, presents the analysis plan
// for approval (the paper's planning stage), executes the approved plan
// through the multi-agent workflow, and reports results with full
// provenance: plot and scene artifacts are listed with the URL serving them.
//
// The REPL is a thin client: it starts the same service registry the
// inferad daemon runs, on a loopback listener, and drives every question
// through the versioned /v1 interactive-session API — an `interactive` ask
// job, the server-sent event stream, and the plan approval endpoint — so
// the terminal plan review and a remote HTTP client's plan review exercise
// one pipeline. With -auto it posts blocking (non-interactive) asks over
// the same API instead. To serve that API to other clients, run inferad
// -ensemble DIR, which registers DIR as the same "default" shard.
//
// Usage:
//
//	infera -ensemble DIR [-work DIR] [-seed 1] [-auto]
//	       [-stage-budget MB] [-stage-dir DIR] [-stage-disk-budget MB]
//	       [-script-fuel N] [-script-mem MB] [-script-timeout D]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"infera/internal/agent"
	"infera/internal/client"
	"infera/internal/dataframe"
	"infera/internal/hacc"
	"infera/internal/sandbox"
	"infera/internal/service"
	"infera/internal/stage"
)

func main() {
	log.SetFlags(0)
	var (
		ensemble   = flag.String("ensemble", "", "ensemble directory (required; see haccgen)")
		work       = flag.String("work", "", "working directory for provenance sessions and the answer cache (default: temp)")
		seed       = flag.Int64("seed", 1, "model seed")
		auto       = flag.Bool("auto", false, "skip plan approval (automated mode)")
		stageMB    = flag.Int64("stage-budget", stage.DefaultBudgetBytes>>20, "staging-cache budget for decoded column blocks, in MB")
		stageDir   = flag.String("stage-dir", "", "staging-cache disk tier directory; empty disables the persistent block store")
		stageDisk  = flag.Int64("stage-disk-budget", stage.DefaultDiskBudgetBytes>>20, "disk-tier block store budget, in MB (needs -stage-dir)")
		scriptFuel = flag.Int64("script-fuel", sandbox.DefaultLimits().MaxFuel, "per-execution script instruction budget (0 = unlimited)")
		scriptMem  = flag.Int64("script-mem", sandbox.DefaultLimits().MaxMemBytes>>20, "per-execution script memory budget, in MB (0 = unlimited)")
		scriptTO   = flag.Duration("script-timeout", sandbox.DefaultLimits().MaxWall, "per-execution script wall-clock limit (0 = none)")
	)
	flag.Parse()
	if *ensemble == "" {
		log.Fatal("infera: -ensemble is required (generate one with haccgen)")
	}
	stage.Shared().SetBudget(*stageMB << 20)
	if *stageDir != "" {
		if err := stage.Shared().SetDiskTier(*stageDir, *stageDisk<<20); err != nil {
			log.Fatalf("infera: stage disk tier: %v", err)
		}
	}
	if err := stage.Shared().SetWatch(true); err != nil {
		log.Printf("infera: stage watch unavailable, every lookup will stat and every ask will walk the ensemble: %v", err)
	}

	limits := sandbox.DefaultLimits()
	limits.MaxFuel = *scriptFuel
	limits.MaxMemBytes = *scriptMem << 20
	limits.MaxWall = *scriptTO

	runREPL(*ensemble, *work, *seed, *auto, limits)
}

// runREPL serves the registry on loopback and drives it through the typed
// client — the same code path a remote interactive consumer runs.
func runREPL(ensemble, work string, seed int64, auto bool, limits sandbox.Limits) {
	reg := service.NewRegistry(service.RegistryConfig{
		Defaults: service.Config{
			Seed:         seed,
			ScriptLimits: limits,
			TrimHistory:  true, // the supervisor inferad runs by default (-trim)
			Workers:      1,    // one human, one session at a time
			// A terminal review waits on a human; keep the auto-approve
			// expiry generous (abandoned remote sessions are the short case).
			ApprovalTimeout: 10 * time.Minute,
		},
		WorkDir: work,
	})
	if _, err := reg.Register("default", ensemble); err != nil {
		log.Fatal(err)
	}
	srv := service.NewServer(reg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := reg.Close(); err != nil {
			log.Printf("infera: registry close: %v", err)
		}
		if err := srv.Close(); err != nil {
			log.Printf("infera: http close: %v", err)
		}
	}()
	cli := client.New(srv.Addr())

	cat, err := hacc.Load(ensemble)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("InferA — smart assistant for cosmological ensemble data")
	fmt.Print(cat.Describe())
	fmt.Println(`Type a question (or "quit"):`)

	stdin := bufio.NewReader(os.Stdin)
	for {
		fmt.Print("\n> ")
		line, err := stdin.ReadString('\n')
		if err != nil {
			return
		}
		question := strings.TrimSpace(line)
		switch question {
		case "":
			continue
		case "quit", "exit":
			return
		}

		var res *service.AskResult
		var askErr error
		if auto {
			res, askErr = cli.Ask("default", service.AskRequest{Question: question})
		} else {
			res, askErr = cli.ReviewedAsk("default", service.AskRequest{Question: question},
				func(ev agent.Event) agent.PlanDecision { return reviewOnConsole(stdin, ev) },
				printEvent)
		}
		if askErr != nil {
			if res != nil && errors.Is(askErr, client.ErrDecisionExpired) {
				log.Printf("warning: %v — the answer below came from the auto-approved plan", askErr)
			} else {
				log.Printf("error: %v", askErr)
				continue
			}
		}
		printResult(cli, res)
	}
}

// reviewOnConsole shows a proposed/revised plan and reads the verdict.
func reviewOnConsole(in *bufio.Reader, ev agent.Event) agent.PlanDecision {
	if ev.Kind == agent.EventPlanRevised {
		fmt.Println("\nRevised plan:")
	} else {
		fmt.Println("\nProposed plan:")
	}
	if ev.Plan != nil {
		fmt.Print(ev.Plan.String())
	}
	fmt.Print("Approve? [Y/n or type feedback]: ")
	line, err := in.ReadString('\n')
	if err != nil {
		return agent.PlanDecision{Approve: true}
	}
	line = strings.TrimSpace(line)
	switch strings.ToLower(line) {
	case "", "y", "yes":
		return agent.PlanDecision{Approve: true}
	case "n", "no":
		return agent.PlanDecision{Approve: false, Comment: "please revise the plan"}
	default:
		return agent.PlanDecision{Approve: false, Comment: line}
	}
}

// printEvent narrates the streamed workflow progress.
func printEvent(ev agent.Event) {
	switch ev.Kind {
	case agent.EventStepStarted:
		fmt.Printf("[%s] step %d: %s\n", ev.Agent, ev.Step+1, ev.Task)
	case agent.EventStepFinished:
		if !ev.OK {
			fmt.Printf("[%s] step failed: %s\n", ev.Agent, ev.Detail)
		}
	case agent.EventQAVerdict:
		if !ev.OK {
			fmt.Printf("[qa] requested regeneration: %s\n", ev.Detail)
		}
	case agent.EventErrorHint:
		fmt.Printf("[%s] step error: %s\n", ev.Agent, ev.Detail)
		if ev.Hint != "" {
			fmt.Printf("suggesting correction: %s\n", ev.Hint)
		}
	}
}

// printResult renders the final answer the way the pre-streaming REPL
// did, pointing at plot and scene artifacts by the URL that serves them.
func printResult(cli *client.Client, res *service.AskResult) {
	if res.Error != "" {
		log.Printf("run failed: %v", res.Error)
	}
	if res.AnswerCSV != "" {
		frame, err := dataframe.ReadCSV(strings.NewReader(res.AnswerCSV))
		if err != nil {
			log.Printf("could not render answer table: %v\nraw CSV:\n%s", err, res.AnswerCSV)
		} else {
			fmt.Println("\nResult:")
			fmt.Print(frame.String())
		}
	}
	fmt.Printf("\nsession %s | %d tokens | %d redo iterations | storage %.2f MB | %s\n",
		res.SessionID, res.Tokens, res.RedoCount,
		float64(res.StorageBytes)/1e6, res.Elapsed.Round(time.Millisecond))
	for _, a := range res.Artifacts {
		if a.Kind == "plot" || a.Kind == "scene" {
			fmt.Printf("  artifact %d: %s (%s) %s\n", a.Seq, a.Name, a.Kind, cli.ArtifactURL("default", res.RequestID, a.Seq))
		}
	}
}
