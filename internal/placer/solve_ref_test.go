package placer

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/geom"
	"mthplace/internal/netlist"
	"mthplace/internal/par"
	"mthplace/internal/tech"
)

// This file keeps the serial scatter solve that the two-phase gather
// replaced, as the reference the gather is checked against. Every sweep
// zeroed three per-cell accumulators, walked the nets in order and added
// each net's pull into the accumulators of its cells.

// refNet is a net prepared for the scatter solve.
type refNet struct {
	cells  []int32
	fx, fy float64 // sum of fixed/port pin coordinates
	nfixed int
	w      float64
}

func refBuildNets(d *netlist.Design) []refNet {
	out := make([]refNet, 0, len(d.Nets))
	for ni, net := range d.Nets {
		if int32(ni) == d.ClockNet || len(net.Pins) < 2 {
			continue
		}
		var pn refNet
		for _, ref := range net.Pins {
			if ref.IsPort() {
				p := d.Ports[ref.Pin].Pos
				pn.fx += float64(p.X)
				pn.fy += float64(p.Y)
				pn.nfixed++
				continue
			}
			if d.Insts[ref.Inst].Fixed {
				p := d.PinPos(ref)
				pn.fx += float64(p.X)
				pn.fy += float64(p.Y)
				pn.nfixed++
				continue
			}
			pn.cells = append(pn.cells, ref.Inst)
		}
		if len(pn.cells) == 0 {
			continue
		}
		deg := len(pn.cells) + pn.nfixed
		pn.w = 1.0 / float64(deg-1)
		out = append(out, pn)
	}
	return out
}

// refSolve is the scatter solve, whole.
func refSolve(d *netlist.Design, nets []refNet, cx, cy, ax, ay []float64, movable []bool, lambda float64, sweeps int) {
	n := len(cx)
	sumW, numX, numY := make([]float64, n), make([]float64, n), make([]float64, n)
	for s := 0; s < sweeps; s++ {
		for i := 0; i < n; i++ {
			sumW[i], numX[i], numY[i] = 0, 0, 0
		}
		for _, pn := range nets {
			deg := float64(len(pn.cells) + pn.nfixed)
			var sx, sy float64
			for _, c := range pn.cells {
				sx += cx[c]
				sy += cy[c]
			}
			sx += pn.fx
			sy += pn.fy
			for _, c := range pn.cells {
				ox := (sx - cx[c]) / (deg - 1)
				oy := (sy - cy[c]) / (deg - 1)
				numX[c] += pn.w * ox
				numY[c] += pn.w * oy
				sumW[c] += pn.w
			}
		}
		loX, hiX := float64(d.Die.Lo.X), float64(d.Die.Hi.X)
		loY, hiY := float64(d.Die.Lo.Y), float64(d.Die.Hi.Y)
		for i := 0; i < n; i++ {
			if !movable[i] {
				continue
			}
			den := sumW[i] + lambda
			if den <= 0 {
				continue
			}
			nx := (numX[i] + lambda*ax[i]) / den
			ny := (numY[i] + lambda*ay[i]) / den
			cx[i] = clampF(nx, loX, hiX)
			cy[i] = clampF(ny, loY, hiY)
		}
	}
}

// solveCase is a random netlist with start positions and anchors for one
// solve.
type solveCase struct {
	d              *netlist.Design
	cx, cy, ax, ay []float64
	movable        []bool
	lambda         float64
	sweeps         int
}

// Flags of randomSolveCase.
const (
	caseZeroLambda = 1 << iota // λ = 0: cells on no net keep their position
	caseTinyDie                // positions and anchors far outside the die, so the clamp binds
	caseFixed                  // about a quarter of the cells are fixed
	caseRepeats                // nets draw from a few cells, so a cell often repeats in one net
	casePortNets               // many nets are ports plus a single cell
	caseClock                  // net 0 is the clock net
)

// randomSolveCase builds a netlist of n cells and about 1.3·n nets with
// pins drawn from cells, fixed cells and ports.
func randomSolveCase(seed int64, n int, flags uint8) solveCase {
	rng := rand.New(rand.NewSource(seed))
	tc := tech.Default()
	lib := celllib.New(tc)
	masters := lib.Masters()
	dieW, dieH := int64(40000), int64(30000)
	if flags&caseTinyDie != 0 {
		dieW, dieH = 500, 400
	}
	d := &netlist.Design{Name: "solve", Tech: tc, Lib: lib, ClockNet: netlist.NoNet,
		Die: geom.NewRect(0, 0, dieW, dieH)}
	coord := func(extent int64) float64 { return float64(rng.Int63n(40000)) - float64(extent)/8 }
	for i := 0; i < n; i++ {
		in := &netlist.Instance{Master: masters[rng.Intn(len(masters))]}
		in.Fixed = flags&caseFixed != 0 && rng.Intn(4) == 0
		in.Pos = geom.Point{X: rng.Int63n(40000), Y: rng.Int63n(30000)}
		d.Insts = append(d.Insts, in)
	}
	for p := 0; p < 1+n/8; p++ {
		d.Ports = append(d.Ports, &netlist.Port{Pos: geom.Point{X: rng.Int63n(dieW), Y: rng.Int63n(dieH)}})
	}
	for k := 0; k < n+n/3+1; k++ {
		net := &netlist.Net{}
		deg := rng.Intn(7) // 0 and 1 pins are skipped by the model
		portOnly := flags&casePortNets != 0 && rng.Intn(3) == 0
		base := rng.Intn(n)
		for len(net.Pins) < deg {
			if rng.Intn(5) == 0 || (portOnly && len(net.Pins) > 0) {
				net.Pins = append(net.Pins, netlist.PinRef{Inst: netlist.PortInst, Pin: int32(rng.Intn(len(d.Ports)))})
				continue
			}
			c := rng.Intn(n)
			if flags&caseRepeats != 0 {
				c = (base + rng.Intn(3)) % n
			}
			pins := len(d.Insts[c].Master.Pins)
			net.Pins = append(net.Pins, netlist.PinRef{Inst: int32(c), Pin: int32(rng.Intn(pins))})
		}
		d.Nets = append(d.Nets, net)
	}
	if flags&caseClock != 0 {
		d.ClockNet = 0
	}
	sc := solveCase{d: d, sweeps: 1 + rng.Intn(4), lambda: anchorBase * math.Pow(1.8, float64(rng.Intn(12)))}
	if flags&caseZeroLambda != 0 {
		sc.lambda = 0
	}
	for i, in := range d.Insts {
		sc.movable = append(sc.movable, !in.Fixed)
		sc.cx = append(sc.cx, coord(dieW))
		sc.cy = append(sc.cy, coord(dieH))
		if i%7 == 0 {
			sc.cx[i] += 0.5 // non-integral positions
		}
		sc.ax = append(sc.ax, coord(dieW))
		sc.ay = append(sc.ay, coord(dieH))
	}
	return sc
}

// checkSolve runs the scatter reference and the gather at pools 1 and 4 on
// one case and fails on the first position whose bits differ.
func checkSolve(t *testing.T, sc solveCase) {
	t.Helper()
	rcx := append([]float64(nil), sc.cx...)
	rcy := append([]float64(nil), sc.cy...)
	refSolve(sc.d, refBuildNets(sc.d), rcx, rcy, sc.ax, sc.ay, sc.movable, sc.lambda, sc.sweeps)
	m := buildStar(sc.d)
	for _, jobs := range []int{1, 4} {
		cx := append([]float64(nil), sc.cx...)
		cy := append([]float64(nil), sc.cy...)
		m.solve(par.NewPool(jobs), sc.d.Die, cx, cy, sc.ax, sc.ay, sc.lambda, sc.sweeps)
		for i := range cx {
			if !sameBits(cx[i], rcx[i]) || !sameBits(cy[i], rcy[i]) {
				t.Fatalf("%d cells, λ=%g, %d sweeps, jobs %d: cell %d at (%v, %v), scatter reference (%v, %v)",
					len(cx), sc.lambda, sc.sweeps, jobs, i, cx[i], cy[i], rcx[i], rcy[i])
			}
		}
	}
}

// TestSolveMatchesScatter covers every case flag, alone and together, at
// sizes of one block, of several, and above parallelMin, where the phases
// run on the pool.
func TestSolveMatchesScatter(t *testing.T) {
	for flags := 0; flags < 1<<6; flags++ {
		for _, n := range []int{1, 2, 9, 700, 2 * parallelMin} {
			checkSolve(t, randomSolveCase(int64(flags*1000+n), n, uint8(flags)))
		}
	}
}

// FuzzSolveMatchesScatter decodes a seed, a cell count (up to 1,023, so a
// sweep can span several blocks) and the case flags, and checks the gather
// against the scatter bit for bit at pools 1 and 4.
func FuzzSolveMatchesScatter(f *testing.F) {
	f.Add(int64(1), uint16(5), uint8(0))
	f.Add(int64(2), uint16(40), uint8(caseRepeats|caseFixed))
	f.Add(int64(3), uint16(12), uint8(caseZeroLambda|casePortNets))
	f.Add(int64(4), uint16(30), uint8(caseTinyDie|caseClock))
	f.Add(int64(5), uint16(600), uint8(0x3f))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, flags uint8) {
		n := 1 + int(size)%1023
		checkSolve(t, randomSolveCase(seed, n, flags))
	})
}

// TestGlobalSameAtAnyPool places random netlists whole at pools 1 and 4,
// large enough that the solve phases and the top spreading cuts run on the
// pool.
func TestGlobalSameAtAnyPool(t *testing.T) {
	for _, flags := range []uint8{0, caseFixed | caseRepeats, casePortNets | caseClock} {
		sc := randomSolveCase(int64(flags)+77, 3*parallelMin, flags)
		var want []byte
		for _, jobs := range []int{1, 4} {
			d := sc.d.Clone()
			Global(d, Options{OuterIters: 4, SolveSweeps: 6, Pool: par.NewPool(jobs)})
			var got []byte
			for _, in := range d.Insts {
				got = binary.LittleEndian.AppendUint64(got, uint64(in.Pos.X))
				got = binary.LittleEndian.AppendUint64(got, uint64(in.Pos.Y))
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Fatalf("flags %#x: placement differs between pools 1 and 4", flags)
			}
		}
	}
}
