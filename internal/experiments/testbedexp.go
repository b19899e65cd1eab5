package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"carriersense/internal/capacity"
	"carriersense/internal/montecarlo"
	"carriersense/internal/plot"
	"carriersense/internal/sim"
	"carriersense/internal/testbed"
)

// TestbedParams configures the §4 experiment reproduction.
type TestbedParams struct {
	Layout     testbed.LayoutParams
	Experiment testbed.ExperimentParams
	Seed       uint64
}

// DefaultTestbed returns the synthetic building with the paper's
// methodology at the given scale.
func DefaultTestbed(scale Scale) TestbedParams {
	p := TestbedParams{
		Layout:     testbed.DefaultLayout(),
		Experiment: testbed.DefaultExperiment(),
		Seed:       42,
	}
	switch scale {
	case ScaleSmoke:
		p.Experiment.Duration = 200 * sim.Millisecond
		p.Experiment.MaxCombos = 6
	case ScaleBench:
		p.Experiment.Duration = 500 * sim.Millisecond
		p.Experiment.MaxCombos = 20
	default:
		// The paper's full protocol: 15-second runs.
		p.Experiment.Duration = 15 * sim.Second
		p.Experiment.MaxCombos = 40
	}
	return p
}

// TestbedResult is one range class's reproduction of Figures 10-13.
type TestbedResult struct {
	Class   testbed.RangeClass
	Result  testbed.ExperimentResult
	Summary testbed.Summary
}

// RunTestbed runs the §4 protocol for one range class on the building
// tb under the experiment knobs p.
func RunTestbed(ctx context.Context, tb *testbed.Testbed, p testbed.ExperimentParams, class testbed.RangeClass) TestbedResult {
	res := testbed.RunExperiment(ctx, tb, p, class)
	return TestbedResult{Class: class, Result: res, Summary: res.Summarize()}
}

// RunTestbedClasses runs the §4 protocol for each range class on one
// fresh building, which they share with its link census. The classes
// are the tasks of a montecarlo.Fork, so their combos share the pool;
// the results are in class order.
func RunTestbedClasses(ctx context.Context, p TestbedParams, classes []testbed.RangeClass) []TestbedResult {
	tb := testbed.Generate(p.Layout, p.Seed)
	out := make([]TestbedResult, len(classes))
	montecarlo.Fork(ctx, len(classes), func(ctx context.Context, i int) {
		out[i] = RunTestbed(ctx, tb, p.Experiment, classes[i])
	})
	return out
}

// CompetitiveChart renders the Figure 10/12 competitive comparison:
// multiplexing and concurrency totals against carrier sense throughput
// on the x-axis, with the CS identity line.
func (r TestbedResult) CompetitiveChart() plot.Chart {
	var xs, mux, conc, ident []float64
	for _, c := range r.Result.Combos {
		xs = append(xs, c.CS)
		mux = append(mux, c.Mux)
		conc = append(conc, c.Conc)
		ident = append(ident, c.CS)
	}
	return plot.Chart{
		Title:  fmt.Sprintf("F%s: %s competitive comparison vs CS", figNum(r.Class, true), r.Class),
		XLabel: "CS throughput (pkt/s)",
		YLabel: "throughput (pkt/s)",
		Series: []plot.Series{
			{Name: "multiplexing", X: xs, Y: mux, Marker: 'm'},
			{Name: "concurrency", X: xs, Y: conc, Marker: 'c'},
			{Name: "CS (identity)", X: xs, Y: ident, Marker: '.'},
		},
	}
}

// RSSIChart renders the Figure 11/13 view: throughput against
// sender-sender RSSI (x reversed, below-detection points at 0).
func (r TestbedResult) RSSIChart() plot.Chart {
	var xs, mux, conc, cs []float64
	for _, c := range r.Result.Combos {
		x := c.SenderRSSIdB
		if math.IsInf(x, -1) {
			x = 0 // the paper plots undetectable pairs in a 0 column
		}
		xs = append(xs, x)
		mux = append(mux, c.Mux)
		conc = append(conc, c.Conc)
		cs = append(cs, c.CS)
	}
	return plot.Chart{
		Title:  fmt.Sprintf("F%s: %s throughput vs sender-sender RSSI", figNum(r.Class, false), r.Class),
		XLabel: "sender-sender RSSI (dB above noise, decreasing)",
		YLabel: "throughput (pkt/s)",
		FlipX:  true,
		Series: []plot.Series{
			{Name: "multiplexing", X: xs, Y: mux, Marker: 'm'},
			{Name: "concurrency", X: xs, Y: conc, Marker: 'c'},
			{Name: "CS", X: xs, Y: cs, Marker: 's'},
		},
	}
}

func figNum(class testbed.RangeClass, competitive bool) string {
	switch {
	case class == testbed.ShortRange && competitive:
		return "10"
	case class == testbed.ShortRange:
		return "11"
	case class == testbed.LongRange && competitive:
		return "12"
	case class == testbed.LongRange:
		return "13"
	default:
		return "X" // extension experiments beyond the paper's figures
	}
}

// RenderSummary writes the §4.1/§4.2-style summary table with the
// paper's reference values alongside.
func (r TestbedResult) RenderSummary(w io.Writer) {
	fmt.Fprintln(w, r.Summary.String())
	switch r.Class {
	case testbed.ShortRange:
		fmt.Fprintln(w, "  (paper §4.1: optimal 1753 pkt/s; CS 97%, mux 58%, conc 89%)")
	case testbed.LongRange:
		fmt.Fprintln(w, "  (paper §4.2: optimal 1029 pkt/s; CS 90%, mux 73%, conc 69%)")
	default:
		fmt.Fprintln(w, "  (extension: beyond the regime the paper could measure)")
	}
}

// ExposedResult packages the §5 exposed-terminal arithmetic.
type ExposedResult struct {
	Study testbed.ExposedTerminalStudy
}

// ExposedTerminals runs the §5 comparison on the short-range set:
// bitrate adaptation versus exposed-terminal exploitation.
func ExposedTerminals(ctx context.Context, p TestbedParams) ExposedResult {
	res := testbed.RunExperiment(ctx, testbed.Generate(p.Layout, p.Seed), p.Experiment, testbed.ShortRange)
	return ExposedResult{Study: testbed.StudyExposedTerminals(res)}
}

// Render writes the §5 numbers with the paper's reference values.
func (r ExposedResult) Render(w io.Writer) {
	s := r.Study
	fmt.Fprintf(w, "S5a: exposed terminals vs bitrate adaptation (short-range set)\n")
	fmt.Fprintf(w, "  bitrate adaptation gain over base rate: %.2fx (paper: >2x)\n", s.AdaptationGain)
	fmt.Fprintf(w, "  perfect exposed-terminal exploitation at base rate: +%.1f%% (paper: ~10%%)\n",
		100*s.ExposedGainBase)
	fmt.Fprintf(w, "  exposed exploitation on top of adaptation: +%.1f%% (paper: ~3%%)\n",
		100*s.CombinedGain)
}

// Extension11gResult compares the deep-long-range experiment under the
// paper's 11a driver rate set against an 11g-style set with the robust
// DSSS low rates — §4.2's suggestion ("Using 11g mode instead should
// reduce such difficulties in experimentally exploring deeper
// long-range scenarios"), made runnable.
type Extension11gResult struct {
	A *TestbedResult // 11a driver rates (6-24 Mb/s)
	G *TestbedResult // 11g-style rates (1, 2, 5.5, 11 + 6-24 Mb/s)
}

// Extension11g runs the deep-long-range comparison: the two rate sets
// on one building, as the tasks of a montecarlo.Fork.
func Extension11g(ctx context.Context, p TestbedParams) Extension11gResult {
	tb := testbed.Generate(p.Layout, p.Seed)
	a, g := p.Experiment, p.Experiment
	a.Rates = capacity.TablePaperDriver
	g.Rates = append(append(capacity.RateTable{}, capacity.Table80211b...), capacity.TablePaperDriver...)
	sets := []testbed.ExperimentParams{a, g}
	res := make([]TestbedResult, len(sets))
	montecarlo.Fork(ctx, len(sets), func(ctx context.Context, i int) {
		res[i] = RunTestbed(ctx, tb, sets[i], testbed.DeepLongRange)
	})
	return Extension11gResult{A: &res[0], G: &res[1]}
}

// MeanCSDelivery averages the per-combo CS delivery ratios.
func (r TestbedResult) MeanCSDelivery() float64 {
	if len(r.Result.Combos) == 0 {
		return 0
	}
	total := 0.0
	for _, c := range r.Result.Combos {
		total += c.CSDelivery
	}
	return total / float64(len(r.Result.Combos))
}

// Render writes the comparison.
func (r Extension11gResult) Render(w io.Writer) {
	fmt.Fprintln(w, "X11g: deep long range (below the 6 Mb/s cliff), 11a vs 11g rate sets")
	fmt.Fprintf(w, "  11a rates: optimal %.0f pkt/s, CS %.0f%% of opt, CS delivery ratio %.2f\n",
		r.A.Summary.Optimal, 100*r.A.Summary.CSFrac(), r.A.MeanCSDelivery())
	fmt.Fprintf(w, "  11g rates: optimal %.0f pkt/s, CS %.0f%% of opt, CS delivery ratio %.2f\n",
		r.G.Summary.Optimal, 100*r.G.Summary.CSFrac(), r.G.MeanCSDelivery())
	fmt.Fprintln(w, "  Reading it: the DSSS floor extends the adaptation range, but the")
	fmt.Fprintln(w, "  goodput oracle mostly keeps the lossy 6 Mb/s rate anyway: a fast")
	fmt.Fprintln(w, "  rate delivering 15 percent beats 1 Mb/s delivering 90 in pkt/s,")
	fmt.Fprintln(w, "  because DSSS frames are ~6x longer on the air. Low rates buy")
	fmt.Fprintln(w, "  per-transmission reliability and measurability (what §4.2 wanted")
	fmt.Fprintln(w, "  11g for), not throughput — consistent with the paper's Shannon")
	fmt.Fprintln(w, "  framing: adaptation chases capacity, and at these SNRs capacity")
	fmt.Fprintln(w, "  is simply scarce. There is 'always some adaptation floor, at")
	fmt.Fprintln(w, "  which point the network becomes unreliable' (§4.2).")
}
