package exp

import (
	"fmt"

	"mpcc/internal/analytic"
	ccmpcc "mpcc/internal/cc/mpcc"
)

// Fig2GradientField reproduces Fig. 2: the utility-derivative vector field
// of an MPCC₂ connection (one subflow on a private 100 Mbps link) and a
// single-path PCC competing on a shared 100 Mbps link.
func Fig2GradientField() *Table {
	grid := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}
	pts := analytic.GradientField(ccmpcc.LossParams(), 100, 100, grid)
	t := &Table{
		Title:  "Fig 2 — utility-derivative field on the shared link (x=MPCC subflow, y=PCC)",
		Header: []string{"x_Mbps", "y_Mbps", "dU_MPCC/dx", "dU_PCC/dy"},
	}
	for _, p := range pts {
		t.addRow([]string{fmt.Sprintf("%.0f", p.X), fmt.Sprintf("%.0f", p.Y)},
			numCell("%+.3f", p.DX), numCell("%+.3f", p.DY))
	}
	t.Notes = append(t.Notes,
		"equilibrium (red dot in the paper): PCC at ≈100 Mbps, MPCC's shared subflow at ≈0")
	return t
}
