package experiments

import (
	"fmt"

	"carriersense/internal/capacity"
	"carriersense/internal/core"
	"carriersense/internal/engine"
	"carriersense/internal/plot"
	"carriersense/internal/sim"
	"carriersense/internal/testbed"
)

// This file registers every experiment as an engine.Scenario, so the
// whole catalog is reachable from the single `cs` CLI (`cs list`,
// `cs run <name>`). One scenario per former cmd/cs* concern; the
// registry is the only coupling between the CLI and the experiments.

func scale(rc *engine.RunContext) Scale {
	s, err := ParseScale(rc.Scale)
	if err != nil {
		// The engine validates the scale name before running.
		panic(err)
	}
	return s
}

func init() {
	engine.Register(engine.Scenario{
		Name:        "curves",
		Description: "Average throughput vs inter-sender distance D for each MAC policy",
		Figures:     "Fig. 4, 5 (sigma=0), Fig. 9 (sigma=8dB)",
		NewParams:   func() any { p := DefaultCurves(55); return &p },
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*CurvesParams)
			res := Curves(rc.Context, p, scale(rc))
			rc.Chart("curves", res.Chart(), 90, 24)
			cross := res.CrossoverD()
			rc.Printf("concurrency/multiplexing crossover (optimal threshold) at D ~= %.0f\n", cross)
			rc.Metric("crossover_d", cross)
			rc.Metric("norm", res.Norm)
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "inefficiency",
		Description: "Hidden/exposed-terminal inefficiency decomposition at one threshold",
		Figures:     "Fig. 6",
		NewParams:   func() any { p := DefaultCurves(55); return &p },
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*CurvesParams)
			res := InefficiencyDecomposition(rc.Context, p, scale(rc))
			res.Render(rc.Out())
			rc.Metric("hidden_total", res.Ineff.HiddenTotal)
			rc.Metric("exposed_total", res.Ineff.ExposedTotal)
			rc.Metric("triangle_total", res.Ineff.TriangleTotal)
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "threshold",
		Description: "Optimal carrier sense threshold vs network radius per path loss exponent",
		Figures:     "Fig. 7",
		NewParams:   func() any { p := DefaultFigure7(); return &p },
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*Figure7Params)
			res := Figure7(rc.Context, p, scale(rc))
			rc.Chart("threshold", res.Chart(), 90, 26)
			rc.Printf("\n")
			res.RegimeTable(rc.Out())
			for _, alpha := range p.Alphas {
				pts := res.Curves[alpha]
				if len(pts) > 0 {
					rc.Metric(fmt.Sprintf("dopt_last_alpha%g", alpha), pts[len(pts)-1].DOpt)
				}
			}
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "landscape",
		Description: "Capacity landscapes around a sender with and without an interferer",
		Figures:     "Fig. 2",
		NewParams:   func() any { p := DefaultLandscape(); return &p },
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*LandscapeParams)
			Landscape(p).Render(rc.Out())
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "preference",
		Description: "Receiver preference maps: concurrency vs multiplexing vs starved regions",
		Figures:     "Fig. 3",
		NewParams:   func() any { p := DefaultLandscape(); return &p },
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*LandscapeParams)
			res := Preference(p)
			res.Render(rc.Out())
			for i, d := range p.DValues {
				rc.Metric(fmt.Sprintf("conc_share_d%g", d), res.Shares[i][0])
				rc.Metric(fmt.Sprintf("mux_share_d%g", d), res.Shares[i][1])
			}
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "tables",
		Description: "Carrier sense efficiency tables: fixed vs per-Rmax optimized thresholds",
		Figures:     "Tables of §3.2.5 (T1, T2)",
		NewParams:   func() any { p := DefaultTable1(); return &p },
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*Table1Params)
			t1, t2 := Tables(rc.Context, p, scale(rc))
			rc.Table("t1", efficiencyTable(t1,
				"T1: CS % of optimal, fixed Dthresh (paper: 96 88 96 / 96 87 96 / 89 83 92)"))
			rc.Printf("\n")
			rc.Table("t2", efficiencyTable(t2,
				"T2: CS % of optimal, per-Rmax optimized thresholds (paper: Dthresh 40/55/60)"))
			rc.Printf("\nminimum cell: %.0f%% (paper claim: typically <15%% below optimal)\n", 100*t1.Min())
			rc.Metric("t1_min_eff", t1.Min())
			rc.Metric("t2_min_eff", t2.Min())
			for i, th := range t2.Thresholds {
				rc.Metric(fmt.Sprintf("t2_dopt_rmax%g", p.RmaxGrid[i]), th)
			}
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "robustness",
		Description: "Fixed-threshold efficiency swept across alpha and shadowing environments",
		Figures:     "§3.2.5 robustness claim (T3)",
		NewParams: func() any {
			return &RobustnessParams{Alphas: []float64{2, 2.5, 3, 3.5, 4}, Sigmas: []float64{4, 8, 12}}
		},
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*RobustnessParams)
			pts := RobustnessSweep(rc.Context, p.Alphas, p.Sigmas, scale(rc))
			tbl := plot.Table{
				Title:   "T3: carrier sense efficiency across environments (fixed power threshold)",
				Headers: []string{"alpha", "sigma(dB)", "min eff", "mean eff"},
			}
			worst := 1.0
			for _, pt := range pts {
				tbl.AddRow(
					fmt.Sprintf("%.1f", pt.Alpha),
					fmt.Sprintf("%.0f", pt.SigmaDB),
					plot.Percent(pt.MinEfficiency),
					plot.Percent(pt.MeanEfficiency),
				)
				if pt.MinEfficiency < worst {
					worst = pt.MinEfficiency
				}
			}
			rc.Table("t3", tbl)
			rc.Metric("min_eff", worst)
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "multi",
		Description: "n > 2 competing pairs: CS vs best-k concurrency under adaptive and fixed rates",
		Figures:     "extension of §3.2.1 / footnote 18",
		NewParams: func() any {
			return &MultiScenarioParams{MaxN: 6, Area: 80, Rmax: 40, DThresh: 55}
		},
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*MultiScenarioParams)
			samples := p.Samples
			if samples <= 0 {
				samples = scale(rc).mcSamples() / 4
			}
			runMultiTable(rc, "multi-adaptive", fmt.Sprintf(
				"n-pair extension, ADAPTIVE bitrate (Shannon): area=%.0f, Rmax=%.0f, Dthresh=%.0f",
				p.Area, p.Rmax, p.DThresh), p, samples, nil)
			rc.Printf("\n")
			runMultiTable(rc, "multi-fixed",
				"n-pair extension, FIXED LOW bitrate (Vutukuru's regime, footnote 18)",
				p, samples, capacity.FixedRate{Rate: 1.25, MinSNR: 2.5})
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "testbed",
		Description: "Packet-level testbed replay: competitive comparison per two-pair combo",
		Figures:     "Fig. 10-13, §4.1/§4.2 summaries",
		NewParams: func() any {
			return &TestbedScenarioParams{Range: "both", Seconds: 0, Combos: 0, Seed: 42}
		},
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*TestbedScenarioParams)
			classes, err := p.classes()
			if err != nil {
				return err
			}
			tp := testbedParamsAt(scale(rc), p.Seconds, p.Combos, p.Seed)
			for _, res := range RunTestbedClasses(rc.Context, tp, classes) {
				class := res.Class
				rc.Chart(fmt.Sprintf("%s-competitive", class), res.CompetitiveChart(), 90, 24)
				rc.Printf("\n")
				rc.Chart(fmt.Sprintf("%s-rssi", class), res.RSSIChart(), 90, 24)
				rc.Printf("\n")
				res.RenderSummary(rc.Out())
				rc.Printf("\n")
				rc.CSV(fmt.Sprintf("%s-combos", class), []string{"class", "rssi_db", "mux", "conc", "cs", "optimal"}, comboRows(res))
				rc.Metric(fmt.Sprintf("%s_cs_frac", class), res.Summary.CSFrac())
				rc.Metric(fmt.Sprintf("%s_optimal_pkts", class), res.Summary.Optimal)
			}
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "exposed",
		Description: "Exposed terminals vs bitrate adaptation on the short-range set",
		Figures:     "§5",
		NewParams: func() any {
			return &TestbedRunParams{Seconds: 0, Combos: 0, Seed: 42}
		},
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*TestbedRunParams)
			res := ExposedTerminals(rc.Context, testbedParamsAt(scale(rc), p.Seconds, p.Combos, p.Seed))
			res.Render(rc.Out())
			rc.Metric("adaptation_gain", res.Study.AdaptationGain)
			rc.Metric("exposed_gain_base", res.Study.ExposedGainBase)
			rc.Metric("combined_gain", res.Study.CombinedGain)
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "extension-11g",
		Description: "Deep long range with 11g-style low rates vs the 11a driver set",
		Figures:     "extension of §4.2",
		NewParams: func() any {
			return &TestbedRunParams{Seconds: 0, Combos: 0, Seed: 42}
		},
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*TestbedRunParams)
			res := Extension11g(rc.Context, testbedParamsAt(scale(rc), p.Seconds, p.Combos, p.Seed))
			res.Render(rc.Out())
			rc.Metric("delivery_11a", res.A.MeanCSDelivery())
			rc.Metric("delivery_11g", res.G.MeanCSDelivery())
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "fit",
		Description: "Censored maximum-likelihood propagation fit to the RSSI census",
		Figures:     "Fig. 14",
		NewParams:   func() any { p := DefaultFigure14(); return &p },
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*Figure14Params)
			res, err := Figure14(p)
			if err != nil {
				return err
			}
			rc.Chart("fit", res.Chart(), 90, 24)
			rc.Printf("\n")
			res.Render(rc.Out())
			rc.Metric("ml_alpha", res.ML.Alpha)
			rc.Metric("ml_sigma_db", res.ML.SigmaDB)
			rc.Metric("censored_pairs", float64(res.Censored))
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "section34",
		Description: "Shadowing worked example: spurious concurrency and bad-SNR probabilities",
		Figures:     "§3.4",
		NewParams:   func() any { return &NoParams{} },
		Run: func(rc *engine.RunContext) error {
			res := Section34(rc.Context, scale(rc))
			res.Render(rc.Out())
			rc.Metric("p_bad_snr", res.Example.PBadSNR)
			rc.Metric("snr_uncertainty_db", res.SNRUncertainty)
			return nil
		},
	})

	engine.Register(engine.Scenario{
		Name:        "barrier",
		Description: "Can a barrier hide a sender from carrier sense? Penetration/reflection/diffraction budget",
		Figures:     "Fig. 8, §3.4",
		NewParams:   func() any { return &NoParams{} },
		Run: func(rc *engine.RunContext) error {
			res := Barrier()
			res.Render(rc.Out())
			rc.Metric("best_path_db", res.BestPathDB)
			rc.Metric("sense_margin_db", res.SenseMarginDB)
			return nil
		},
	})
}

// NoParams is the parameter struct of scenarios whose configuration is
// entirely the engine-level scale.
type NoParams struct{}

// RobustnessParams configures the T3 environment sweep.
type RobustnessParams struct {
	Alphas []float64
	Sigmas []float64
}

// MultiScenarioParams configures the n > 2 sender extension.
type MultiScenarioParams struct {
	MaxN    int     // largest number of competing pairs
	Samples int     // Monte Carlo configurations per n; 0 derives from scale
	Area    float64 // sender scattering radius
	Rmax    float64 // receiver placement radius
	DThresh float64 // carrier sense threshold distance
}

func runMultiTable(rc *engine.RunContext, artifact, title string, p MultiScenarioParams, samples int, capModel capacity.Model) {
	tbl := plot.Table{
		Title:   title,
		Headers: []string{"n", "TDMA", "conc", "CS", "best-k", "k*", "CS/best-k", "exposed headroom", "avg active"},
	}
	for n := 2; n <= p.MaxN; n++ {
		mp := core.DefaultMultiParams(n)
		mp.AreaRadius = p.Area
		mp.Rmax = p.Rmax
		mp.DThresh = p.DThresh
		mp.Env.Capacity = capModel
		a := core.NewMulti(mp).EstimateMulti(rc.Context, uint64(n), samples)
		tbl.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", a.TDMA.Mean),
			fmt.Sprintf("%.3f", a.Conc.Mean),
			fmt.Sprintf("%.3f", a.CS.Mean),
			fmt.Sprintf("%.3f", a.BestK.Mean),
			fmt.Sprintf("%.1f", a.MeanBestLevel.Mean),
			plot.Percent(a.Efficiency()),
			fmt.Sprintf("+%.0f%%", 100*a.ExposedHeadroom()),
			fmt.Sprintf("%.1f", a.AvgActive.Mean),
		)
		rc.Metric(fmt.Sprintf("%s_eff_n%d", artifact, n), a.Efficiency())
	}
	rc.Table(artifact, tbl)
}

// TestbedRunParams configures the testbed-backed scenarios that run a
// fixed range class (exposed, extension-11g).
type TestbedRunParams struct {
	Seconds float64 // per-run send duration; 0 derives from scale
	Combos  int     // two-pair combinations per class; 0 derives from scale
	Seed    uint64  // building and experiment seed
}

// TestbedScenarioParams configures the `testbed` scenario.
type TestbedScenarioParams struct {
	Range   string  // short, long, deep, or both
	Seconds float64 // per-run send duration; 0 derives from scale
	Combos  int     // two-pair combinations per class; 0 derives from scale
	Seed    uint64  // building and experiment seed
}

func testbedParamsAt(sc Scale, seconds float64, combos int, seed uint64) TestbedParams {
	tp := DefaultTestbed(sc)
	tp.Seed = seed
	if seconds > 0 {
		tp.Experiment.Duration = sim.FromSeconds(seconds)
	}
	if combos > 0 {
		tp.Experiment.MaxCombos = combos
	}
	return tp
}

func (p TestbedScenarioParams) classes() ([]testbed.RangeClass, error) {
	switch p.Range {
	case "short":
		return []testbed.RangeClass{testbed.ShortRange}, nil
	case "long":
		return []testbed.RangeClass{testbed.LongRange}, nil
	case "deep":
		return []testbed.RangeClass{testbed.DeepLongRange}, nil
	case "both":
		return []testbed.RangeClass{testbed.ShortRange, testbed.LongRange}, nil
	default:
		return nil, fmt.Errorf("unknown range %q (want short, long, deep, or both)", p.Range)
	}
}

func comboRows(res TestbedResult) [][]string {
	rows := make([][]string, 0, len(res.Result.Combos))
	for _, c := range res.Result.Combos {
		rows = append(rows, []string{
			fmt.Sprint(res.Class),
			fmt.Sprintf("%.1f", c.SenderRSSIdB),
			fmt.Sprintf("%.0f", c.Mux),
			fmt.Sprintf("%.0f", c.Conc),
			fmt.Sprintf("%.0f", c.CS),
			fmt.Sprintf("%.0f", c.Optimal()),
		})
	}
	return rows
}

// efficiencyTable converts an EfficiencyTable into a plot.Table (the
// former cmd/cstables rendering, routed through the engine so the CSV
// artifact comes for free).
func efficiencyTable(t EfficiencyTable, title string) plot.Table {
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
		tbl.Rows = append(tbl.Rows, row)
	}
	return tbl
}
