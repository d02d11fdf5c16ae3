package lefdef

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"mthplace/internal/celllib"
	"mthplace/internal/tech"
)

// WriteLEF serialises a set of masters in the compact LEF subset used by
// this project. All distances are in DBU (nanometres). Timing and power
// parameters are carried as PROPERTY records.
func WriteLEF(w io.Writer, t *tech.Tech, masters []*celllib.Master) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nUNITS DATABASE NANOMETERS 1 ;\n")
	fmt.Fprintf(bw, "SITE coreSite SIZE %d BY %d ;\n", t.SiteWidth, t.RowHeight6T)
	sorted := append([]*celllib.Master(nil), masters...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		fmt.Fprintf(bw, "MACRO %s\n", m.Name)
		fmt.Fprintf(bw, "  CLASS CORE ;\n")
		fmt.Fprintf(bw, "  SIZE %d BY %d ;\n", m.Width, m.RowH)
		fmt.Fprintf(bw, "  PROPERTY kind %d drive %d height %d vt %d seq %d ;\n",
			m.Kind, m.Drive, m.Height, m.VT, boolInt(m.Sequential))
		fmt.Fprintf(bw, "  PROPERTY delay %s res %s energy %s leak %s ;\n",
			ftoa(m.IntrinsicDelay), ftoa(m.DriveRes), ftoa(m.InternalEnergy), ftoa(m.Leakage))
		for _, p := range m.Pins {
			dir := "INPUT"
			if p.Dir == celllib.Output {
				dir = "OUTPUT"
			}
			fmt.Fprintf(bw, "  PIN %s DIRECTION %s CAP %s ORIGIN %d %d ;\n",
				p.Name, dir, ftoa(p.Cap), p.Offset.X, p.Offset.Y)
		}
		fmt.Fprintf(bw, "END %s\n", m.Name)
	}
	fmt.Fprintf(bw, "END LIBRARY\n")
	return bw.Flush()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
