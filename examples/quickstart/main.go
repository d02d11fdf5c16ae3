// Quickstart: run the paper's final flow (Flow 5 — ILP row assignment +
// fence-aware legalization) on one small testcase and print every metric
// the paper reports.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"mthplace/internal/flow"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

func main() {
	// Cancel this context (or give it a deadline) to abort the run early.
	ctx := context.Background()

	// Pick a Table II testcase. Scale 0.05 keeps the quickstart fast; set
	// Scale to 1.0 for the paper-size design.
	spec := synth.TableII()[3] // aes_360
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = 0.05

	// The Runner prepares the shared starting point: synthetic netlist,
	// mLEF transform, unconstrained global placement, and Flow (2)'s
	// minority row budget N_minR.
	runner, err := flow.NewRunner(ctx, spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("testcase %s: %d cells (%.1f%% are 7.5T), %d nets, %d row pairs, N_minR=%d\n",
		spec.Name(), len(runner.Base.Insts), 100*runner.Base.MinorityFraction(),
		len(runner.Base.Nets), runner.Grid.N, runner.NminR)

	// Run the proposed flow end-to-end, including routing and signoff.
	res, err := runner.Run(ctx, flow.Flow5, true)
	if err != nil {
		log.Fatal(err)
	}
	m := res.Metrics

	fmt.Println("\nFlow (5) — proposed ILP row assignment + fence-aware legalization:")
	fmt.Printf("  clusters for the ILP:  %d (ILP variables: %d)\n", m.NumClusters, m.ILPVars)
	fmt.Printf("  row assignment time:   %v\n", m.RAPTime)
	fmt.Printf("  legalization time:     %v\n", m.LegalTime)
	fmt.Printf("  displacement:          %d DBU\n", m.Displacement)
	fmt.Printf("  post-placement HPWL:   %d DBU\n", m.HPWL)
	fmt.Printf("  routed wirelength:     %d DBU\n", m.RoutedWL)
	fmt.Printf("  total power:           %.3f mW\n", m.PowerMW)
	fmt.Printf("  WNS / TNS:             %.3f / %.3f ns\n", m.WNSps/1000, m.TNSps/1000)

	// Show the mixed track-height row structure the RAP produced.
	tall := len(res.Stack.PairsOf(tech.Tall7p5T))
	fmt.Printf("\nrow structure: %d pairs total, %d are 7.5T islands\n", res.Stack.NumPairs(), tall)
}
