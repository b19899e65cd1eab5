package testbed

import (
	"math"
	"slices"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/montecarlo"
	"carriersense/internal/phy"
)

// serialCensus is the census as one serial loop, with the fade
// quadrature's Gaussian weights recomputed per branch and link: the
// reference the shared, pool-striped census must equal bit for bit.
func serialCensus(tb *Testbed) []Link {
	rate6 := capacity.Table80211a[0]
	var links []Link
	for i := 0; i < tb.Params.Nodes; i++ {
		for j := 0; j < tb.Params.Nodes; j++ {
			if i == j {
				continue
			}
			snr := tb.SNRdB(phy.NodeID(i), phy.NodeID(j))
			fade := tb.Params.Fade.WithOutageProb(tb.outageProb[i][j])
			links = append(links, Link{
				Src:         phy.NodeID(i),
				Dst:         phy.NodeID(j),
				SNRdB:       snr,
				DeliveryAt6: serialExpectedDelivery(fade, rate6, snr, 1400),
			})
		}
	}
	return links
}

func serialExpectedDelivery(f capacity.FadeModel, r capacity.Rate, medianSNRdB float64, frameBytes int) float64 {
	if f.Zero() {
		return capacity.DeliveryRate(r, medianSNRdB, frameBytes)
	}
	branch := func(offset float64) float64 {
		if f.SigmaDB <= 0 {
			return capacity.DeliveryRate(r, medianSNRdB+offset, frameBytes)
		}
		const n = 33
		total, wsum := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := -4 + 8*(float64(i)+0.5)/n
			w := math.Exp(-x * x / 2)
			total += w * capacity.DeliveryRate(r, medianSNRdB+offset+x*f.SigmaDB, frameBytes)
			wsum += w
		}
		return total / wsum
	}
	p := min(max(f.OutageProb, 0), 1)
	return (1-p)*branch(0) + p*branch(-f.OutageDepthDB)
}

// TestCensusMatchesSerial checks the census, and the classes filtered
// from it, against the serial reference at several pool widths, for
// two buildings and a non-default fade.
func TestCensusMatchesSerial(t *testing.T) {
	odd := DefaultLayout()
	odd.Nodes = 23
	odd.Fade = capacity.FadeModel{SigmaDB: 4, OutageProb: 0.07, OutageDepthDB: 18}
	layouts := []LayoutParams{DefaultLayout(), odd}
	t.Cleanup(montecarlo.ResetMaxWorkers)
	for _, width := range []int{1, 2, 7} {
		if err := montecarlo.SetMaxWorkers(width); err != nil {
			t.Fatal(err)
		}
		for li, lp := range layouts {
			for _, seed := range []uint64{42, 7} {
				tb := Generate(lp, seed)
				want := serialCensus(tb)
				got := tb.Census()
				if len(got) != len(want) {
					t.Fatalf("width %d layout %d seed %d: %d links, want %d", width, li, seed, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] || math.Float64bits(got[k].DeliveryAt6) != math.Float64bits(want[k].DeliveryAt6) {
						t.Fatalf("width %d layout %d seed %d: link %d = %v, want %v", width, li, seed, k, got[k], want[k])
					}
				}
				for _, rc := range []RangeClass{ShortRange, LongRange, DeepLongRange} {
					var wantQ []Link
					for _, l := range want {
						if rc.Matches(l) {
							wantQ = append(wantQ, l)
						}
					}
					if got := tb.QualifyingLinks(rc); !slices.Equal(got, wantQ) {
						t.Errorf("width %d layout %d seed %d: %s links differ from the serial census's", width, li, seed, rc)
					}
				}
			}
		}
	}
}
