// Paramsweep reproduces Fig. 4 in miniature: it sweeps the clustering
// resolution s and the cost weight α on a couple of testcases and prints
// the normalised displacement / HPWL / ILP-runtime curves from which the
// paper picks s = 0.2 and α = 0.75.
//
//	go run ./examples/paramsweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"mthplace/internal/exp"
	"mthplace/internal/synth"
)

func main() {
	// Two testcases keep the example quick; the experiments CLI sweeps the
	// paper's full 14-testcase set.
	var specs []synth.Spec
	for _, s := range synth.TableII() {
		if s.Name() == "aes_360" || s.Name() == "jpeg_400" {
			specs = append(specs, s)
		}
	}
	cfg := exp.Config{Scale: 0.04, Specs: specs}
	ctx := context.Background()

	fmt.Println("sweeping clustering resolution s (Fig. 4a)...")
	ss, err := exp.RunSSweep(ctx, cfg, []float64{0.1, 0.2, 0.5, 1.0})
	if err != nil {
		log.Fatal(err)
	}
	sweepS := ss.Fig4a()
	sweepS.Table().Render(os.Stdout)
	fmt.Printf("chosen s = %.2f\n\n", sweepS.Best)

	fmt.Println("sweeping cost weight alpha (Fig. 4b)...")
	sweepA, err := exp.Fig4b(ctx, cfg, []float64{0, 0.25, 0.5, 0.75, 1.0})
	if err != nil {
		log.Fatal(err)
	}
	sweepA.Table().Render(os.Stdout)
	fmt.Printf("chosen alpha = %.2f\n", sweepA.Best)
}
