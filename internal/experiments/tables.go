// Package experiments contains one orchestrator per table and figure
// of the paper's evaluation, returning structured results and
// rendering them as text. README's "Scenario catalog ↔ paper figures"
// maps each scenario to its paper source; experiments_test.go checks
// the measured values against the paper's.
//
// Every orchestrator takes a Scale: benchmark and test callers use
// reduced Monte Carlo sample counts, command-line tools use full ones.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"carriersense/internal/core"
	"carriersense/internal/montecarlo"
	"carriersense/internal/plot"
)

// Scale selects the sampling effort of an experiment.
type Scale int

// Scales.
const (
	// ScaleSmoke is for unit tests: fast, noisy.
	ScaleSmoke Scale = iota
	// ScaleBench is for benchmarks: seconds per experiment.
	ScaleBench
	// ScaleFull is for the command-line tools: minutes, tight error
	// bars comparable to the paper's Maple runs.
	ScaleFull
)

// ParseScale maps the CLI's effort names to Scale values.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "smoke":
		return ScaleSmoke, nil
	case "bench", "":
		return ScaleBench, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want smoke, bench, or full)", s)
	}
}

// mcSamples returns the Monte Carlo sample count per estimate.
func (s Scale) mcSamples() int {
	switch s {
	case ScaleSmoke:
		return 4_000
	case ScaleBench:
		return 40_000
	default:
		return 400_000
	}
}

// Table1Params are the §3.2.5 grid parameters: fixed threshold 55,
// α = 3, σ = 8 dB.
type Table1Params struct {
	Alpha, SigmaDB float64
	DThresh        float64
	RmaxGrid       []float64
	DGrid          []float64
	Seed           uint64
}

// DefaultTable1 returns the paper's exact grid.
func DefaultTable1() Table1Params {
	return Table1Params{
		Alpha:    3,
		SigmaDB:  8,
		DThresh:  55,
		RmaxGrid: []float64{20, 40, 120},
		DGrid:    []float64{20, 55, 120},
		Seed:     1,
	}
}

// EfficiencyTable is a grid of carrier sense efficiencies (fraction of
// optimal) indexed [rmax][d], with the thresholds used per row.
type EfficiencyTable struct {
	Params     Table1Params
	Cells      [][]float64 // Cells[i][j] = efficiency at RmaxGrid[i], DGrid[j]
	Thresholds []float64   // per-R_max threshold distance used
}

// Table1 computes the first §3.2.5 table: CS efficiency with the fixed
// factory threshold D_thresh = 55 across the R_max × D grid. Paper
// values: rows (20, 40, 120) × columns (20, 55, 120) =
// (96 88 96 / 96 87 96 / 89 83 92) percent. The cells are independent
// estimation points and run as one montecarlo.Fork.
func Table1(ctx context.Context, p Table1Params, scale Scale) EfficiencyTable {
	m := core.New(core.Params{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
	n := scale.mcSamples()
	t := newEfficiencyTable(p)
	cols := len(p.DGrid)
	montecarlo.Fork(ctx, len(p.RmaxGrid)*cols, func(ctx context.Context, k int) {
		i, j := k/cols, k%cols
		a := m.WithContext(ctx).EstimateAverages(p.Seed+uint64(i*31+j), n, p.RmaxGrid[i], p.DGrid[j], p.DThresh)
		t.Cells[i][j] = a.Efficiency()
	})
	for i := range t.Thresholds {
		t.Thresholds[i] = p.DThresh
	}
	return t
}

// Table2 computes the second §3.2.5 table: the same grid but with the
// threshold optimized per R_max by the §3.3.3 criterion (the
// ⟨C_conc⟩ = ⟨C_mux⟩ crossing). Paper thresholds: 40, 55, 60; values
// (93 91 99 / 96 87 96 / 89 83 92) percent. Each row is one task of a
// montecarlo.Fork: its threshold search, then its cells as a nested
// Fork, so that the slowest row's cells run side by side.
func Table2(ctx context.Context, p Table1Params, scale Scale) EfficiencyTable {
	m := core.New(core.Params{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
	n := scale.mcSamples()
	t := newEfficiencyTable(p)
	montecarlo.Fork(ctx, len(p.RmaxGrid), func(ctx context.Context, i int) {
		rmax := p.RmaxGrid[i]
		dOpt := m.WithContext(ctx).OptimalThreshold(p.Seed+uint64(1000+i), n/4, rmax)
		montecarlo.Fork(ctx, len(p.DGrid), func(ctx context.Context, j int) {
			a := m.WithContext(ctx).EstimateAverages(p.Seed+uint64(i*31+j), n, rmax, p.DGrid[j], dOpt)
			t.Cells[i][j] = a.Efficiency()
		})
		t.Thresholds[i] = dOpt
	})
	return t
}

// newEfficiencyTable allocates a table's cells, so that forked tasks
// can each fill their own.
func newEfficiencyTable(p Table1Params) EfficiencyTable {
	t := EfficiencyTable{
		Params:     p,
		Cells:      make([][]float64, len(p.RmaxGrid)),
		Thresholds: make([]float64, len(p.RmaxGrid)),
	}
	for i := range t.Cells {
		t.Cells[i] = make([]float64, len(p.DGrid))
	}
	return t
}

// Render writes the efficiency table in the paper's format.
func (t EfficiencyTable) Render(w io.Writer, title string) {
	tbl := plot.Table{Title: title, Headers: []string{"Rmax \\ D"}}
	for _, d := range t.Params.DGrid {
		tbl.Headers = append(tbl.Headers, fmt.Sprintf("%.0f", d))
	}
	for i, rmax := range t.Params.RmaxGrid {
		label := fmt.Sprintf("%.0f", rmax)
		if len(t.Thresholds) > i && t.Thresholds[i] != t.Params.DThresh {
			label = fmt.Sprintf("%.0f (Dthresh=%.0f)", rmax, t.Thresholds[i])
		}
		row := []string{label}
		for _, v := range t.Cells[i] {
			row = append(row, plot.Percent(v))
		}
		tbl.AddRow(row...)
	}
	tbl.Render(w)
}

// Min returns the smallest efficiency in the table (the paper's
// headline: "average throughput is typically less than 15% below
// optimal" — every cell ≥ ~83%).
func (t EfficiencyTable) Min() float64 {
	min := 1.0
	for _, row := range t.Cells {
		for _, v := range row {
			if v < min {
				min = v
			}
		}
	}
	return min
}

// RobustnessPoint is one (α, σ) sweep cell of the §3.2.5 robustness
// claim ("we omit figures showing alpha varying from 2 to 4 and sigma
// from 4 dB to 12 dB, but again, very little change is observed").
type RobustnessPoint struct {
	Alpha, SigmaDB float64
	MinEfficiency  float64
	MeanEfficiency float64
}

// RobustnessSweep evaluates the fixed-threshold Table 1 grid across
// environments. What the factory fixes is the threshold *power* — the
// paper's D_thresh = 55 at α = 3 is P_thresh ≈ -52 dB (13 dB above
// the -65 dB noise reference). Under a different propagation exponent
// the same power corresponds to a different distance, which is
// precisely why §3.3.4 finds one hardware threshold robust across
// environments; sweeping with a fixed *distance* instead collapses
// the α = 2 cells.
func RobustnessSweep(ctx context.Context, alphas, sigmas []float64, scale Scale) []RobustnessPoint {
	base := DefaultTable1()
	pThresh := math.Pow(base.DThresh, -base.Alpha)
	var out []RobustnessPoint
	for _, alpha := range alphas {
		for _, sigma := range sigmas {
			p := DefaultTable1()
			p.Alpha = alpha
			p.SigmaDB = sigma
			p.DThresh = math.Pow(pThresh, -1/alpha)
			t := Table1(ctx, p, scale)
			sum, cnt := 0.0, 0
			for _, row := range t.Cells {
				for _, v := range row {
					sum += v
					cnt++
				}
			}
			out = append(out, RobustnessPoint{
				Alpha: alpha, SigmaDB: sigma,
				MinEfficiency:  t.Min(),
				MeanEfficiency: sum / float64(cnt),
			})
		}
	}
	return out
}

// RenderRobustness writes the sweep as a table.
func RenderRobustness(w io.Writer, points []RobustnessPoint) {
	tbl := plot.Table{
		Title:   "T3: carrier sense efficiency across environments (fixed Dthresh=55)",
		Headers: []string{"alpha", "sigma(dB)", "min eff", "mean eff"},
	}
	for _, p := range points {
		tbl.AddRow(
			fmt.Sprintf("%.1f", p.Alpha),
			fmt.Sprintf("%.0f", p.SigmaDB),
			plot.Percent(p.MinEfficiency),
			plot.Percent(p.MeanEfficiency),
		)
	}
	tbl.Render(w)
}
