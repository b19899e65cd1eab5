package experiments

import (
	"context"
	"fmt"
	"io"

	"carriersense/internal/capacity"
	"carriersense/internal/core"
	"carriersense/internal/testbed"
)

// Report runs every experiment of README's scenario catalog at the
// given scale and writes a consolidated text report: the `report`
// scenario.
func Report(ctx context.Context, w io.Writer, scale Scale) {
	fmt.Fprintln(w, "=== In Defense of Wireless Carrier Sense: reproduction report ===")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- T1/T2: carrier sense efficiency tables (section 3.2.5) ---")
	t1 := Table1(ctx, DefaultTable1(), scale)
	t1.Render(w, "T1: CS %% of optimal, fixed Dthresh=55 (paper: 96 88 96 / 96 87 96 / 89 83 92)")
	fmt.Fprintln(w)
	t2 := Table2(ctx, DefaultTable1(), scale)
	t2.Render(w, "T2: CS %% of optimal, per-Rmax optimized thresholds (paper: Dthresh 40/55/60; 93 91 99 / 96 87 96 / 89 83 92)")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- T3: environment robustness sweep ---")
	RenderRobustness(w, RobustnessSweep(ctx, []float64{2, 3, 4}, []float64{4, 8, 12}, minScale(scale)))
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- F2/F3: capacity landscape and preference maps ---")
	lp := DefaultLandscape()
	if scale == ScaleSmoke {
		lp.Cells = 24
	}
	Landscape(lp).Render(w)
	Preference(lp).Render(w)

	fmt.Fprintln(w, "--- F4/F5: throughput vs D, sigma=0 ---")
	for _, rmax := range []float64{20, 55, 120} {
		c := Curves(DefaultCurves(rmax), scale)
		chart := c.Chart(rmax == 55) // Figure 5 highlights the CS curve at Rmax=55
		chart.Render(w, 72, 18)
		fmt.Fprintf(w, "concurrency/multiplexing crossover at D ~= %.0f\n\n", c.CrossoverD())
	}

	fmt.Fprintln(w, "--- F6: inefficiency decomposition ---")
	InefficiencyDecomposition(DefaultCurves(55), scale).Render(w)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- F7: optimal threshold vs network radius ---")
	f7p := DefaultFigure7()
	if scale == ScaleSmoke {
		f7p.Alphas = []float64{3}
		f7p.RmaxGrid = f7p.RmaxGrid[:6]
	}
	f7 := Figure7(f7p, scale)
	chart := f7.Chart()
	chart.Render(w, 72, 20)
	f7.RegimeTable(w)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- F9: throughput vs D with 8 dB shadowing ---")
	for _, rmax := range []float64{20, 55, 120} {
		p := DefaultCurves(rmax)
		p.SigmaDB = 8
		c := Curves(p, scale)
		chart := c.Chart(true)
		chart.Render(w, 72, 18)
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "--- S34: shadowing worked example ---")
	Section34(scale).Render(w)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- F8: barrier analysis ---")
	Barrier().Render(w)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- F10-F13: testbed experiments (packet simulator) ---")
	tp := DefaultTestbed(scale)
	short := RunTestbed(tp, testbed.ShortRange)
	cchart := short.CompetitiveChart()
	cchart.Render(w, 72, 18)
	rchart := short.RSSIChart()
	rchart.Render(w, 72, 18)
	short.RenderSummary(w)
	fmt.Fprintln(w)
	long := RunTestbed(tp, testbed.LongRange)
	cchart = long.CompetitiveChart()
	cchart.Render(w, 72, 18)
	rchart = long.RSSIChart()
	rchart.Render(w, 72, 18)
	long.RenderSummary(w)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- S5a: exposed terminals vs bitrate adaptation ---")
	ExposedTerminals(tp).Render(w)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- X11g: deep long range with 11g rates (extension) ---")
	Extension11g(tp).Render(w)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- Xn: n > 2 senders (extension) ---")
	RenderMultiPair(w, scale)
	fmt.Fprintln(w)

	fmt.Fprintln(w, "--- F14: propagation fit ---")
	f14, err := Figure14(DefaultFigure14())
	if err != nil {
		fmt.Fprintf(w, "figure 14 failed: %v\n", err)
	} else {
		fchart := f14.Chart()
		fchart.Render(w, 72, 18)
		f14.Render(w)
	}
}

// minScale drops one scale level for the expensive sweeps.
func minScale(s Scale) Scale {
	if s > ScaleSmoke {
		return s - 1
	}
	return s
}

// RenderMultiPair writes the n-pair extension sweep under both
// capacity models (see cmd/csmulti for the standalone tool).
func RenderMultiPair(w io.Writer, scale Scale) {
	samples := scale.mcSamples() / 4
	maxN := 6
	if scale == ScaleSmoke {
		maxN = 3
	}
	for _, fixed := range []bool{false, true} {
		label := "adaptive bitrate (Shannon)"
		if fixed {
			label = "fixed low bitrate (footnote 18 regime)"
		}
		fmt.Fprintf(w, "n-pair sweep, %s:\n", label)
		for n := 2; n <= maxN; n++ {
			p := core.DefaultMultiParams(n)
			if fixed {
				p.Env.Capacity = capacity.FixedRate{Rate: 1.25, MinSNR: 2.5}
			}
			a := core.NewMulti(p).EstimateMulti(uint64(n), samples)
			fmt.Fprintf(w, "  n=%d: CS/best-k %.0f%%, exposed headroom +%.0f%%, avg active %.1f\n",
				n, 100*a.Efficiency(), 100*a.ExposedHeadroom(), a.AvgActive.Mean)
		}
	}
}
