// Scaling reproduces Fig. 5 in miniature: the ILP runtime of the proposed
// row assignment plotted against the number of minority instances, with the
// least-squares fit showing the (near-linear) scaling the paper reports.
//
//	go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mthplace/internal/exp"
	"mthplace/internal/synth"
)

func main() {
	// A spread of testcase sizes; the experiments CLI runs all 26.
	names := map[string]bool{
		"aes_400": true, "aes_300": true, "fpu_4500": true,
		"des3_290": true, "des3_210": true, "jpeg_350": true,
	}
	var specs []synth.Spec
	for _, s := range synth.TableII() {
		if names[s.Name()] {
			specs = append(specs, s)
		}
	}

	m, err := exp.RunMatrix(context.Background(), exp.Config{Scale: 0.05, Specs: specs}, false)
	if err != nil {
		log.Fatal(err)
	}
	res := m.Fig5()

	fmt.Println("ILP runtime vs number of minority instances (Flow 5):")
	maxT := 0.0
	for _, p := range res.Points {
		if p.ILPSeconds > maxT {
			maxT = p.ILPSeconds
		}
	}
	for _, p := range res.Points {
		bar := int(40 * p.ILPSeconds / maxT)
		fmt.Printf("  %-10s %5d minority  %7.3fs  %s\n",
			p.Name, p.NumMinority, p.ILPSeconds, strings.Repeat("#", bar))
	}
	fmt.Printf("\nleast-squares fit: t = %.3g·n %+.3g  (correlation r = %.3f)\n",
		res.Slope, res.Intercept, res.R)
}
