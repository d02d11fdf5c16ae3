package lefdef

import (
	"bufio"
	"fmt"
	"io"

	"mthplace/internal/netlist"
)

// WriteDEF serialises a design in the compact DEF subset. All distances are
// DBU. The clock period and clock net are carried as PROPERTY and USE CLOCK
// records. Records stream through one buffered writer, whose errors are
// sticky and returned by the final Flush, so memory stays flat regardless of
// design size.
func WriteDEF(w io.Writer, d *netlist.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE NANOMETERS 1 ;\n", d.Name)
	fmt.Fprintf(bw, "DIEAREA ( %d %d ) ( %d %d ) ;\n", d.Die.Lo.X, d.Die.Lo.Y, d.Die.Hi.X, d.Die.Hi.Y)
	fmt.Fprintf(bw, "PROPERTY clockPeriodPs %s ;\n", ftoa(d.ClockPeriodPs))

	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(d.Insts))
	for _, in := range d.Insts {
		status := "PLACED"
		if in.Fixed {
			status = "FIXED"
		}
		fmt.Fprintf(bw, "- %s %s + %s ( %d %d ) N ;\n", in.Name, in.Master.Name, status, in.Pos.X, in.Pos.Y)
	}
	fmt.Fprintf(bw, "END COMPONENTS\n")

	fmt.Fprintf(bw, "PINS %d ;\n", len(d.Ports))
	for _, p := range d.Ports {
		dir := "INPUT"
		if p.Dir == netlist.Out {
			dir = "OUTPUT"
		}
		fmt.Fprintf(bw, "- %s + DIRECTION %s + PLACED ( %d %d ) ;\n", p.Name, dir, p.Pos.X, p.Pos.Y)
	}
	fmt.Fprintf(bw, "END PINS\n")

	fmt.Fprintf(bw, "NETS %d ;\n", len(d.Nets))
	for ni, n := range d.Nets {
		fmt.Fprintf(bw, "- %s", n.Name)
		for _, ref := range n.Pins {
			if ref.IsPort() {
				fmt.Fprintf(bw, " ( PIN %s )", d.Ports[ref.Pin].Name)
			} else {
				in := d.Insts[ref.Inst]
				fmt.Fprintf(bw, " ( %s %s )", in.Name, in.Master.Pins[ref.Pin].Name)
			}
		}
		if int32(ni) == d.ClockNet {
			fmt.Fprintf(bw, " + USE CLOCK")
		}
		fmt.Fprintf(bw, " ;\n")
	}
	fmt.Fprintf(bw, "END NETS\nEND DESIGN\n")
	return bw.Flush()
}
