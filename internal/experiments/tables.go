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
	"math"

	"carriersense/internal/core"
	"carriersense/internal/montecarlo"
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

// Tables computes both §3.2.5 tables over the R_max × D grid. t1 uses
// the fixed factory threshold p.DThresh; paper values: rows (20, 40,
// 120) × columns (20, 55, 120) = (96 88 96 / 96 87 96 / 89 83 92)
// percent. t2 uses the threshold optimized per R_max by the §3.3.3
// criterion (the ⟨C_conc⟩ = ⟨C_mux⟩ crossing); paper thresholds 40, 55,
// 60 and values (93 91 99 / 96 87 96 / 89 83 92) percent.
//
// Each row is one task of a montecarlo.Fork: its threshold search,
// then one row estimate that draws each sample once and evaluates it at
// every D of the row under both thresholds. The two tables share every
// draw, the columns of a row share theirs as common random numbers,
// and t1 is bit-identical to Table1.
func Tables(ctx context.Context, p Table1Params, scale Scale) (t1, t2 EfficiencyTable) {
	m := core.New(core.Params{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
	n := scale.mcSamples()
	t1, t2 = newEfficiencyTable(p), newEfficiencyTable(p)
	montecarlo.Fork(ctx, len(p.RmaxGrid), func(ctx context.Context, i int) {
		rmax := p.RmaxGrid[i]
		dOpt := m.OptimalThreshold(ctx, p.Seed+uint64(1000+i), n/4, rmax)
		fixed, opt := m.EstimateAveragesRow(ctx, rowSeed(p, i), n, rmax, p.DGrid, p.DThresh, dOpt)
		for j := range p.DGrid {
			t1.Cells[i][j] = fixed[j].Efficiency()
			t2.Cells[i][j] = opt[j].Efficiency()
		}
		t1.Thresholds[i] = p.DThresh
		t2.Thresholds[i] = dOpt
	})
	return t1, t2
}

// Table1 computes the fixed-threshold table of Tables alone, for the
// robustness sweep: the same row estimates, with the fixed threshold in
// both places. Its rows are independent and run as one montecarlo.Fork.
func Table1(ctx context.Context, p Table1Params, scale Scale) EfficiencyTable {
	m := core.New(core.Params{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
	n := scale.mcSamples()
	t := newEfficiencyTable(p)
	montecarlo.Fork(ctx, len(p.RmaxGrid), func(ctx context.Context, i int) {
		fixed, _ := m.EstimateAveragesRow(ctx, rowSeed(p, i), n, p.RmaxGrid[i], p.DGrid, p.DThresh, p.DThresh)
		for j := range p.DGrid {
			t.Cells[i][j] = fixed[j].Efficiency()
		}
		t.Thresholds[i] = p.DThresh
	})
	return t
}

// rowSeed is the seed of row i's estimate.
func rowSeed(p Table1Params, i int) uint64 { return p.Seed + uint64(i*31) }

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
