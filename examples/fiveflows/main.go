// Fiveflows compares all five Table III placement flows on one testcase —
// a miniature of the paper's Tables IV and V. Flows (2)/(3) use the prior
// work's k-means row assignment; (4)/(5) use the proposed ILP; (3)/(5) use
// the proposed fence-aware legalization.
//
//	go run ./examples/fiveflows
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mthplace/internal/flow"
	"mthplace/internal/metrics"
	"mthplace/internal/synth"
)

func main() {
	ctx := context.Background()
	spec := synth.TableII()[16] // des3_220
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = 0.05

	runner, err := flow.NewRunner(ctx, spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("testcase %s at scale %.2f: %d cells, %.1f%% 7.5T, N_minR=%d\n\n",
		spec.Name(), cfg.Synth.Scale, len(runner.Base.Insts),
		100*runner.Base.MinorityFraction(), runner.NminR)

	results, err := runner.RunAll(ctx, true)
	if err != nil {
		log.Fatal(err)
	}

	t := &metrics.Table{
		Title: "five flows on " + spec.Name() +
			" (Flow 1 = unconstrained mLEF reference)",
		Headers: []string{"flow", "row assignment", "legalization",
			"disp", "HPWL", "routedWL", "power(mW)", "WNS(ns)", "TNS(ns)", "time"},
	}
	assign := map[flow.ID]string{
		flow.Flow1: "none", flow.Flow2: "[10] k-means", flow.Flow3: "[10] k-means",
		flow.Flow4: "ours (ILP)", flow.Flow5: "ours (ILP)",
	}
	legal := map[flow.ID]string{
		flow.Flow1: "none", flow.Flow2: "[10] Abacus", flow.Flow3: "ours (fence)",
		flow.Flow4: "[10] Abacus", flow.Flow5: "ours (fence)",
	}
	for _, id := range []flow.ID{flow.Flow1, flow.Flow2, flow.Flow3, flow.Flow4, flow.Flow5} {
		m := results[id].Metrics
		t.Add(fmt.Sprint(int(id)), assign[id], legal[id],
			fmt.Sprint(m.Displacement), fmt.Sprint(m.HPWL), fmt.Sprint(m.RoutedWL),
			metrics.F(m.PowerMW, 2), metrics.F(m.WNSps/1000, 3), metrics.F(m.TNSps/1000, 1),
			m.TotalTime.Truncate(1e6).String())
	}
	t.Render(os.Stdout)

	f2, f5 := results[flow.Flow2].Metrics, results[flow.Flow5].Metrics
	fmt.Printf("\nFlow (5) vs Flow (2): HPWL %+0.1f%%, routed WL %+0.1f%%, power %+0.1f%%\n",
		pct(f5.HPWL, f2.HPWL), pct(f5.RoutedWL, f2.RoutedWL),
		100*(f5.PowerMW/f2.PowerMW-1))
}

func pct(a, b int64) float64 { return 100 * (float64(a)/float64(b) - 1) }
