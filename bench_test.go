// Package carriersense_bench regenerates every table and figure of the
// paper's evaluation as a Go benchmark (README's "Scenario catalog ↔
// paper figures" maps each scenario to its figure). Each benchmark
// runs the experiment at ScaleBench and reports the headline quantity
// as a custom metric, so `go test -bench=. -benchmem` doubles as the
// reproduction harness: compare the reported metrics against the paper
// values quoted in the bench names' doc comments.
//
// Ablation benchmarks of the model's design choices live at the
// bottom: fixed-rate versus adaptive capacity, the noise-floor
// term, shadowing, CCA flavor, capture, and RTS policies.
package carriersense_bench

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/core"
	"carriersense/internal/dist"
	"carriersense/internal/experiments"
	"carriersense/internal/mac"
	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
	"carriersense/internal/phy"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
	"carriersense/internal/testbed"
)

// benchScale selects the sampling effort: the full ScaleBench
// reproduction by default, ScaleSmoke under `go test -short` so CI
// can run every benchmark as a fast smoke lane
// (`go test -short -run '^$' -bench . -benchtime 1x .`).
func benchScale() experiments.Scale {
	if testing.Short() {
		return experiments.ScaleSmoke
	}
	return experiments.ScaleBench
}

// BenchmarkTable1Efficiency reproduces the §3.2.5 fixed-threshold
// table (paper: 96 88 96 / 96 87 96 / 89 83 92 percent). Reported
// metrics: mean and minimum efficiency over the grid.
func BenchmarkTable1Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1(context.Background(), experiments.DefaultTable1(), benchScale())
		sum, cnt := 0.0, 0
		for _, row := range t.Cells {
			for _, v := range row {
				sum += v
				cnt++
			}
		}
		b.ReportMetric(sum/float64(cnt), "mean_eff")
		b.ReportMetric(t.Min(), "min_eff")
	}
}

// BenchmarkTable2OptimizedThreshold reproduces the optimized-threshold
// table (paper thresholds 40/55/60).
func BenchmarkTable2OptimizedThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2(context.Background(), experiments.DefaultTable1(), benchScale())
		b.ReportMetric(t.Thresholds[0], "dopt_rmax20")
		b.ReportMetric(t.Thresholds[2], "dopt_rmax120")
		b.ReportMetric(t.Min(), "min_eff")
	}
}

// BenchmarkTableRobustnessSweep reproduces the §3.2.5 α/σ robustness
// claim ("very little change is observed").
func BenchmarkTableRobustnessSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RobustnessSweep(context.Background(), []float64{2, 3, 4}, []float64{4, 8, 12}, experiments.ScaleSmoke)
		min := 1.0
		for _, p := range pts {
			if p.MinEfficiency < min {
				min = p.MinEfficiency
			}
		}
		b.ReportMetric(min, "worst_cell_eff")
	}
}

// BenchmarkFigure2Landscape rasterizes the capacity landscapes.
func BenchmarkFigure2Landscape(b *testing.B) {
	p := experiments.DefaultLandscape()
	for i := 0; i < b.N; i++ {
		res := experiments.Landscape(p)
		b.ReportMetric(res.Single.Values[p.Cells/2][p.Cells/2], "peak_capacity")
	}
}

// BenchmarkFigure3Preference rasterizes the receiver preference maps
// (paper: D=55 splits receivers "nearly down the middle").
func BenchmarkFigure3Preference(b *testing.B) {
	p := experiments.DefaultLandscape()
	for i := 0; i < b.N; i++ {
		res := experiments.Preference(p)
		b.ReportMetric(res.Shares[1][0], "conc_share_d55")
		b.ReportMetric(res.Shares[1][2], "starved_share_d55")
	}
}

// BenchmarkFigure4Curves computes the σ=0 throughput-versus-D curves
// for the three R_max panels.
func BenchmarkFigure4Curves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cross float64
		for _, rmax := range []float64{20, 55, 120} {
			res := experiments.Curves(experiments.DefaultCurves(rmax), benchScale())
			cross = res.CrossoverD()
		}
		b.ReportMetric(cross, "crossover_rmax120")
	}
}

// BenchmarkFigure5CarrierSenseCurve computes the R_max = 55 panel with
// the CS piecewise curve highlighted.
func BenchmarkFigure5CarrierSenseCurve(b *testing.B) {
	p := experiments.DefaultCurves(55)
	for i := 0; i < b.N; i++ {
		res := experiments.Curves(p, benchScale())
		// Gap between CS and optimal at the threshold (the visible
		// compromise of Figure 5).
		var gap float64
		for _, pt := range res.Points {
			if math.Abs(pt.D-55) < 4 {
				gap = pt.Max - pt.CS
			}
		}
		b.ReportMetric(gap, "cs_gap_at_threshold")
	}
}

// BenchmarkFigure6Inefficiency decomposes hidden/exposed inefficiency.
func BenchmarkFigure6Inefficiency(b *testing.B) {
	p := experiments.DefaultCurves(55)
	for i := 0; i < b.N; i++ {
		res := experiments.InefficiencyDecomposition(p, benchScale())
		b.ReportMetric(res.Ineff.HiddenTotal, "hidden_frac")
		b.ReportMetric(res.Ineff.ExposedTotal, "exposed_frac")
	}
}

// BenchmarkFigure7OptimalThreshold computes the threshold-versus-R_max
// curves (paper: α=3 boundaries near R_max 18 and 60).
func BenchmarkFigure7OptimalThreshold(b *testing.B) {
	p := experiments.Figure7Params{
		Alphas:   []float64{2, 3, 4},
		SigmaDB:  8,
		RmaxGrid: numeric.LogSpace(5, 200, 8),
		Seed:     1,
	}
	for i := 0; i < b.N; i++ {
		res := experiments.Figure7(p, benchScale())
		pts := res.Curves[3]
		b.ReportMetric(pts[0].DOptAlpha3, "dopt_small_rmax")
		b.ReportMetric(pts[len(pts)-1].DOptAlpha3, "dopt_large_rmax")
	}
}

// BenchmarkFigure9ShadowedCurves computes the σ=8 dB curves (paper:
// CS interpolates smoothly; long-range gap narrows).
func BenchmarkFigure9ShadowedCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var csAtThresh float64
		for _, rmax := range []float64{20, 55, 120} {
			p := experiments.DefaultCurves(rmax)
			p.SigmaDB = 8
			res := experiments.Curves(p, benchScale())
			for _, pt := range res.Points {
				if math.Abs(pt.D-55) < 4 {
					csAtThresh = pt.CS
				}
			}
		}
		b.ReportMetric(csAtThresh, "cs_at_threshold_rmax120")
	}
}

// BenchmarkFigure10ShortRange runs the short-range testbed experiment
// (paper: CS 97%, mux 58%, conc 89% of optimal).
func BenchmarkFigure10ShortRange(b *testing.B) {
	p := experiments.DefaultTestbed(benchScale())
	for i := 0; i < b.N; i++ {
		res := experiments.RunTestbed(p, testbed.ShortRange)
		b.ReportMetric(res.Summary.CSFrac(), "cs_frac")
		b.ReportMetric(res.Summary.MuxFrac(), "mux_frac")
		b.ReportMetric(res.Summary.ConcFrac(), "conc_frac")
		b.ReportMetric(res.Summary.Optimal, "optimal_pkts")
	}
}

// BenchmarkFigure12LongRange runs the long-range testbed experiment
// (paper: CS 90%, mux 73%, conc 69%).
func BenchmarkFigure12LongRange(b *testing.B) {
	p := experiments.DefaultTestbed(benchScale())
	for i := 0; i < b.N; i++ {
		res := experiments.RunTestbed(p, testbed.LongRange)
		b.ReportMetric(res.Summary.CSFrac(), "cs_frac")
		b.ReportMetric(res.Summary.MuxFrac(), "mux_frac")
		b.ReportMetric(res.Summary.ConcFrac(), "conc_frac")
		b.ReportMetric(res.Summary.Optimal, "optimal_pkts")
	}
}

// BenchmarkFigure14PropagationFit runs the censored ML propagation fit
// (paper's own building: α=3.6, σ=10.4 dB).
func BenchmarkFigure14PropagationFit(b *testing.B) {
	p := experiments.DefaultFigure14()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure14(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ML.Alpha, "alpha")
		b.ReportMetric(res.ML.SigmaDB, "sigma_db")
	}
}

// BenchmarkSection5ExposedTerminal runs the §5 adaptation-versus-
// exposed-terminal comparison (paper: >2x vs ~10% vs ~3%).
func BenchmarkSection5ExposedTerminal(b *testing.B) {
	p := experiments.DefaultTestbed(benchScale())
	for i := 0; i < b.N; i++ {
		res := experiments.ExposedTerminals(p)
		b.ReportMetric(res.Study.AdaptationGain, "adaptation_gain_x")
		b.ReportMetric(100*res.Study.ExposedGainBase, "exposed_base_pct")
		b.ReportMetric(100*res.Study.CombinedGain, "exposed_on_top_pct")
	}
}

// BenchmarkSection34ShadowingExample evaluates the §3.4 worked example
// (paper: ~20% spurious concurrency, ~4% bad-SNR configurations).
func BenchmarkSection34ShadowingExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Section34(benchScale())
		b.ReportMetric(100*res.Example.PSpuriousConcurrency, "spurious_pct")
		b.ReportMetric(100*res.Example.PBadSNRMC.Mean, "bad_snr_pct")
	}
}

// --- Ablation benches -------------------------------------------------

// BenchmarkAblationFixedVsAdaptiveRate swaps the Shannon capacity model
// for a fixed-rate step function — the paper's central analytical
// claim is that this one change is what makes hidden/exposed terminals
// look catastrophic. Metrics: CS efficiency at the transition point
// under each model.
func BenchmarkAblationFixedVsAdaptiveRate(b *testing.B) {
	run := func(capModel capacity.Model) float64 {
		p := core.Params{Alpha: 3, SigmaDB: 8, NoiseDB: core.DefaultNoiseDB, Capacity: capModel}
		m := core.New(p)
		a := m.EstimateAverages(1, 40_000, 55, 55, 55)
		return a.Efficiency()
	}
	for i := 0; i < b.N; i++ {
		adaptive := run(nil) // Shannon
		// Fixed rate pinned to the capacity at 15 dB SNR.
		fixed := run(capacity.FixedRate{Rate: math.Log1p(31.6), MinSNR: 31.6})
		b.ReportMetric(adaptive, "adaptive_eff")
		b.ReportMetric(fixed, "fixed_eff")
	}
}

// BenchmarkAblationNoiseFloor drops the noise floor far below any
// signal — §6 notes that models without the noise term "completely
// wipe the long range regime from view": the optimal threshold keeps
// growing instead of saturating.
func BenchmarkAblationNoiseFloor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withNoise := core.New(core.Params{Alpha: 3, SigmaDB: 0, NoiseDB: -65})
		noNoise := core.New(core.Params{Alpha: 3, SigmaDB: 0, NoiseDB: -200})
		b.ReportMetric(withNoise.OptimalThresholdQuad(120), "dopt_rmax120_noise")
		b.ReportMetric(noNoise.OptimalThresholdQuad(120), "dopt_rmax120_no_noise")
	}
}

// BenchmarkAblationShadowing compares CS efficiency with and without
// lognormal shadowing at the transition point.
func BenchmarkAblationShadowing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sigma := range []float64{0, 8} {
			m := core.New(core.Params{Alpha: 3, SigmaDB: sigma, NoiseDB: -65})
			a := m.EstimateAverages(2, 40_000, 55, 55, 55)
			if sigma == 0 {
				b.ReportMetric(a.Efficiency(), "eff_sigma0")
			} else {
				b.ReportMetric(a.Efficiency(), "eff_sigma8")
			}
		}
	}
}

// BenchmarkAblationThresholdSensitivity sweeps the CS threshold ±2x
// around the optimum (§3.3.4's robustness claim, quantified).
func BenchmarkAblationThresholdSensitivity(b *testing.B) {
	p := experiments.DefaultCurves(40)
	p.SigmaDB = 8
	p.DGrid = numeric.LinSpace(10, 160, 8)
	for i := 0; i < b.N; i++ {
		pts := experiments.ThresholdSensitivity(p, []float64{27, 55, 110}, benchScale())
		b.ReportMetric(pts[0].Efficiency, "eff_half_thresh")
		b.ReportMetric(pts[1].Efficiency, "eff_at_thresh")
		b.ReportMetric(pts[2].Efficiency, "eff_double_thresh")
	}
}

// BenchmarkAblationPreambleVsEnergyCCA compares the testbed experiment
// under preamble-based carrier sense (Atheros-style, sensitive to
// -92 dBm) against pure energy detection at -82 dBm.
func BenchmarkAblationPreambleVsEnergyCCA(b *testing.B) {
	run := func(preamble bool) float64 {
		tb := testbed.Generate(testbed.DefaultLayout(), 42)
		p := testbed.DefaultExperiment()
		p.Duration = 500 * sim.Millisecond
		p.MaxCombos = 12
		p.EnergyOnlyCCA = !preamble
		res := testbed.RunExperiment(tb, p, testbed.ShortRange)
		return res.Summarize().CSFrac()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true), "cs_frac_preamble")
		b.ReportMetric(run(false), "cs_frac_energy")
	}
}

// BenchmarkAblationRTSPolicy compares throughput under RTS off, always,
// and adaptive on a clean unicast link — the §5 cost argument.
func BenchmarkAblationRTSPolicy(b *testing.B) {
	run := func(mode mac.RTSMode) float64 {
		src := rng.New(7)
		s := sim.New()
		ch := staticChannel{gain: -80}
		cfg := phy.DefaultConfig()
		cfg.Fade = capacity.FadeModel{}
		medium := phy.NewMedium(s, ch, cfg, src.Split())
		tx := medium.AddRadio(0, 15)
		rx := medium.AddRadio(1, 15)
		_ = rx
		macCfg := mac.DefaultConfig()
		macCfg.UseACK = true
		macCfg.RTS = mode
		st := mac.NewStation(s, tx, macCfg, src.Split(), mac.FixedRate{Rate: capacity.Table80211a[4]})
		mac.NewStation(s, medium.Radio(1), macCfg, src.Split(), nil)
		delivered := 0.0
		st.OnDeliver = func(phy.Frame) { delivered++ }
		st.StartSaturated(1, 1400)
		s.Run(1 * sim.Second)
		return delivered
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(mac.RTSOff), "pkts_rts_off")
		b.ReportMetric(run(mac.RTSAlways), "pkts_rts_always")
		b.ReportMetric(run(mac.RTSAdaptive), "pkts_rts_adaptive")
	}
}

// staticChannel is a flat channel for the RTS ablation.
type staticChannel struct{ gain float64 }

func (c staticChannel) GainDB(from, to phy.NodeID) float64 { return c.gain }

// BenchmarkSimulatorEventThroughput measures the raw discrete-event
// engine: a dense self-rescheduling workload. events/sec is its
// headline number; TestEventLoopAllocs in internal/sim bounds the
// allocations of the same workload.
func BenchmarkSimulatorEventThroughput(b *testing.B) {
	const events = 100_000
	for i := 0; i < b.N; i++ {
		s := sim.New()
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < events {
				s.After(sim.Microsecond, tick)
			}
		}
		s.After(0, tick)
		s.RunAll()
	}
	b.ReportMetric(float64(events*b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkPacketSimSecond measures packet-simulator speed: one
// simulated second of a saturated two-pair carrier sense scenario.
func BenchmarkPacketSimSecond(b *testing.B) {
	tb := testbed.Generate(testbed.DefaultLayout(), 42)
	links := tb.QualifyingLinks(testbed.ShortRange)
	if len(links) < 2 {
		b.Skip("no links")
	}
	for i := 0; i < b.N; i++ {
		p := testbed.DefaultExperiment()
		p.Duration = 1 * sim.Second
		p.MaxCombos = 1
		p.Rates = p.Rates[:1]
		testbed.RunExperiment(tb, p, testbed.ShortRange)
	}
}

// BenchmarkMonteCarloAverages measures the analytical model's sampling
// throughput (samples/op is fixed at 40k).
func BenchmarkMonteCarloAverages(b *testing.B) {
	m := core.New(core.DefaultParams())
	for i := 0; i < b.N; i++ {
		m.EstimateAverages(uint64(i), 40_000, 55, 55, 55)
	}
}

// BenchmarkRunRequestPool measures local pool scaling on one 10-shard
// core/averages request: width=1 runs the shards serially, and
// width=GOMAXPROCS reports its speedup over width=1. A speedup near 1
// on a multi-core host means the workers contend, e.g. on shared cache
// lines.
func BenchmarkRunRequestPool(b *testing.B) {
	req := core.AveragesRequest(core.DefaultParams(), 55, 55, 55, 1, 40_000)
	defer montecarlo.ResetMaxWorkers()
	widths := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		widths = append(widths, n)
	}
	var serialNs float64
	for _, width := range widths {
		name := "width=1"
		if width > 1 {
			name = "width=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			if err := montecarlo.SetMaxWorkers(width); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				req.Seed = uint64(i)
				if _, err := montecarlo.RunRequest(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if width == 1 {
				serialNs = ns
			} else if serialNs > 0 {
				b.ReportMetric(serialNs/ns, "speedup")
			}
		})
	}
}

// BenchmarkDistributedVsLocal measures the distributed executor's
// per-shard overhead against the in-process pool on the same
// estimation (EstimateAverages, 40k samples ≈ 10 shards): shard
// transport plus scheduling versus a plain RunShards sweep. Workers
// are in-process httptest servers, so the delta is pure protocol cost
// with no network in the way — the floor any real fleet adds to.
// Sub-benchmark names avoid a trailing fleet number (remote-2workers,
// not remote-workers-2), which benchmark tools would read as the
// GOMAXPROCS suffix.
func BenchmarkDistributedVsLocal(b *testing.B) {
	m := core.New(core.DefaultParams())
	const samples = 40_000
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := m.EstimateAverages(uint64(i), samples, 55, 55, 55)
			b.ReportMetric(a.Efficiency(), "eff")
		}
		shards := float64(montecarlo.ShardCount(samples))
		b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/shards*1e6, "us/shard")
	}
	b.Run("local", run)
	for _, fleet := range []int{2, 5} {
		hosts := make([]string, fleet)
		for i := range hosts {
			srv := httptest.NewServer(dist.NewServer())
			defer srv.Close()
			hosts[i] = strings.TrimPrefix(srv.URL, "http://")
		}
		remote, err := dist.NewRemote(hosts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("remote-%dworkers", fleet), func(b *testing.B) {
			montecarlo.SetExecutor(remote)
			defer montecarlo.SetExecutor(nil)
			run(b)
		})
	}
}

// BenchmarkExtensionMultiPair runs the n > 2 sender extension under
// both capacity models: adaptive headroom should stay flat with n,
// fixed-low-rate headroom should grow (footnote 18).
func BenchmarkExtensionMultiPair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		adaptive := core.NewMulti(core.DefaultMultiParams(6)).EstimateMulti(1, 10_000)
		p := core.DefaultMultiParams(6)
		p.Env.Capacity = capacity.FixedRate{Rate: 1.25, MinSNR: 2.5}
		fixed := core.NewMulti(p).EstimateMulti(1, 10_000)
		b.ReportMetric(100*adaptive.ExposedHeadroom(), "headroom_adaptive_pct")
		b.ReportMetric(100*fixed.ExposedHeadroom(), "headroom_fixed_pct")
	}
}

// BenchmarkExtension11g runs the deep-long-range 11a-versus-11g rate
// set comparison (§4.2's suggestion).
func BenchmarkExtension11g(b *testing.B) {
	p := experiments.DefaultTestbed(benchScale())
	p.Experiment.MaxCombos = 10
	for i := 0; i < b.N; i++ {
		res := experiments.Extension11g(p)
		b.ReportMetric(res.A.MeanCSDelivery(), "cs_delivery_11a")
		b.ReportMetric(res.G.MeanCSDelivery(), "cs_delivery_11g")
	}
}
