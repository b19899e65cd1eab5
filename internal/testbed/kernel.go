package testbed

// The testbed sim kernel: each two-pair replication — one (combo,
// seed, duration) measurement under every mode and rate — is a
// registered montecarlo kernel, which puts the packet simulator on the
// same executor seam the Monte Carlo estimators have used since PR 2.
// A replication is fully described by (layout params, layout seed,
// experiment knobs, the four node IDs, sim seed): the worker
// regenerates the building bit-identically from that identity and
// replays the combo. Replications are deterministic (one "sample",
// zero variance), so:
//
//   - RunExperiment submits its combos as the tasks of one
//     montecarlo.ForkCapped, so each is an estimation point with a
//     plan position, and assembles results in combo order —
//     bit-identical at any `-parallel` width;
//   - under `cs run -relerr`, the convergence driver runs each combo
//     at its own one-sample budget whatever -max-samples says (the
//     kernel is registered as exact);
//   - under `cs run -workers`, combos travel to the fleet like any
//     other shard job;
//   - under `cs run -cache`, each replication is one cache entry keyed
//     by its full identity, so repeated testbed runs are free.
//
// The request pins Sampler to plain regardless of the run's `-sampler`
// choice: variance-reduction strategies transform random draws, which
// is meaningful for Monte Carlo integrands but would silently change a
// deterministic replay's trajectory (and its cache identity) without
// reducing any variance.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"carriersense/internal/capacity"
	"carriersense/internal/montecarlo"
	"carriersense/internal/phy"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// KernelCombo is the registered name of the two-pair replication
// kernel.
const KernelCombo = "testbed/combo"

// Indices into the combo kernel's component vector: the ComboResult
// fields, links excluded (the scheduler knows which combo it asked
// for).
const (
	idxComboRSSI = iota
	idxComboMux
	idxComboConc
	idxComboCS
	idxComboMuxBase
	idxComboConcBase
	idxComboCSBase
	idxComboCSDelivery
	nComboIdx
)

// comboWire is the serializable identity of one replication. It
// carries only the inputs the replication depends on — MaxCombos and
// the combo-selection seed of ExperimentParams deliberately stay out,
// so the same combo measured under differently sized experiments hits
// the same cache entry.
type comboWire struct {
	Layout          LayoutParams       `json:"layout"`
	LayoutSeed      uint64             `json:"layout_seed"`
	Duration        sim.Time           `json:"duration"`
	FrameBytes      int                `json:"frame_bytes"`
	Rates           capacity.RateTable `json:"rates"`
	CCAThresholdDBm float64            `json:"cca_threshold_dbm"`
	EnergyOnlyCCA   bool               `json:"energy_only_cca,omitempty"`
	Src1            phy.NodeID         `json:"src1"`
	Dst1            phy.NodeID         `json:"dst1"`
	Src2            phy.NodeID         `json:"src2"`
	Dst2            phy.NodeID         `json:"dst2"`
	SimSeed         uint64             `json:"sim_seed"`
}

// experimentParams reconstructs the per-replication experiment knobs.
func (w comboWire) experimentParams() ExperimentParams {
	return ExperimentParams{
		Duration:        w.Duration,
		FrameBytes:      w.FrameBytes,
		Rates:           w.Rates,
		CCAThresholdDBm: w.CCAThresholdDBm,
		EnergyOnlyCCA:   w.EnergyOnlyCCA,
	}
}

func init() {
	montecarlo.RegisterExactKernel(KernelCombo, nComboIdx, func(raw json.RawMessage) (montecarlo.BatchEvalFunc, error) {
		var w comboWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, err
		}
		if w.Layout.Nodes < 2 {
			return nil, fmt.Errorf("testbed: combo kernel needs a layout with >= 2 nodes, got %d", w.Layout.Nodes)
		}
		if len(w.Rates) == 0 {
			return nil, fmt.Errorf("testbed: combo kernel needs a non-empty rate table")
		}
		if w.Duration <= 0 {
			return nil, fmt.Errorf("testbed: combo kernel needs a positive duration, got %d", w.Duration)
		}
		for _, id := range []phy.NodeID{w.Src1, w.Dst1, w.Src2, w.Dst2} {
			if id < 0 || int(id) >= w.Layout.Nodes {
				return nil, fmt.Errorf("testbed: combo node %d outside layout of %d nodes", id, w.Layout.Nodes)
			}
		}
		p := w.experimentParams()
		// The replication is deterministic: its randomness comes from
		// SimSeed in the identity, not from the shard stream.
		return montecarlo.BatchLoop(nComboIdx, func(_ *rng.Source, out []float64) {
			tb := memoTestbed(w.Layout, w.LayoutSeed)
			res := runCombo(tb, p, Link{Src: w.Src1, Dst: w.Dst1}, Link{Src: w.Src2, Dst: w.Dst2}, w.SimSeed)
			out[idxComboRSSI] = res.SenderRSSIdB
			out[idxComboMux] = res.Mux
			out[idxComboConc] = res.Conc
			out[idxComboCS] = res.CS
			out[idxComboMuxBase] = res.MuxBase
			out[idxComboConcBase] = res.ConcBase
			out[idxComboCSBase] = res.CSBase
			out[idxComboCSDelivery] = res.CSDelivery
		}), nil
	})
}

// tbMemoKey is a testbed realization's identity. LayoutParams is a
// flat struct of scalars, so the key is comparable.
type tbMemoKey struct {
	layout LayoutParams
	seed   uint64
}

// tbMemo caches recent realizations so the combos of one experiment —
// evaluated as independent kernel requests, possibly on different
// goroutines or worker processes — regenerate the building once, not
// once per combo. Testbeds are immutable after Generate, so sharing is
// safe.
var tbMemo struct {
	sync.Mutex
	entries map[tbMemoKey]*Testbed
}

// tbMemoMax bounds the memo: an experiment touches one realization, a
// grid sweep a handful. Evicting everything on overflow is crude but
// regeneration is cheap next to a single replication.
const tbMemoMax = 8

func memoTestbed(p LayoutParams, seed uint64) *Testbed {
	key := tbMemoKey{layout: p, seed: seed}
	tbMemo.Lock()
	tb := tbMemo.entries[key]
	tbMemo.Unlock()
	if tb != nil {
		return tb
	}
	tb = Generate(p, seed)
	memoPut(tb)
	return tb
}

// memoPut seeds the memo with a realization the caller already has.
func memoPut(tb *Testbed) {
	key := tbMemoKey{layout: tb.Params, seed: tb.seed}
	tbMemo.Lock()
	if tbMemo.entries == nil {
		tbMemo.entries = make(map[tbMemoKey]*Testbed)
	}
	if len(tbMemo.entries) >= tbMemoMax {
		clear(tbMemo.entries)
	}
	tbMemo.entries[key] = tb
	tbMemo.Unlock()
}

// comboRequest builds the serializable estimation request for one
// replication.
func comboRequest(tb *Testbed, p ExperimentParams, l1, l2 Link, seed uint64) montecarlo.Request {
	w := comboWire{
		Layout:          tb.Params,
		LayoutSeed:      tb.seed,
		Duration:        p.Duration,
		FrameBytes:      p.FrameBytes,
		Rates:           p.Rates,
		CCAThresholdDBm: p.CCAThresholdDBm,
		EnergyOnlyCCA:   p.EnergyOnlyCCA,
		Src1:            l1.Src,
		Dst1:            l1.Dst,
		Src2:            l2.Src,
		Dst2:            l2.Dst,
		SimSeed:         seed,
	}
	raw, err := json.Marshal(w)
	if err != nil {
		panic(&montecarlo.ExecError{Kernel: KernelCombo, Err: fmt.Errorf("marshal combo params: %w", err)})
	}
	// Sampler stays "" — the canonical plain identity. An empty name
	// resolves to the plain strategy at evaluation regardless of the
	// run's -sampler (runCombos submits the request as built, without
	// the plan's sampler), so the replication is pinned to raw replay
	// under any sampler choice.
	return montecarlo.Request{
		Kernel:  KernelCombo,
		Params:  raw,
		Seed:    seed,
		Samples: 1,
		Dim:     nComboIdx,
	}
}

// comboFromAccs decodes a replication's accumulator vector. Each
// component holds exactly one Welford observation, so Mean is the
// recorded value bit-for-bit.
func comboFromAccs(l1, l2 Link, accs []montecarlo.Accumulator) ComboResult {
	return ComboResult{
		Link1:        l1,
		Link2:        l2,
		SenderRSSIdB: accs[idxComboRSSI].Estimate().Mean,
		Mux:          accs[idxComboMux].Estimate().Mean,
		Conc:         accs[idxComboConc].Estimate().Mean,
		CS:           accs[idxComboCS].Estimate().Mean,
		MuxBase:      accs[idxComboMuxBase].Estimate().Mean,
		ConcBase:     accs[idxComboConcBase].Estimate().Mean,
		CSBase:       accs[idxComboCSBase].Estimate().Mean,
		CSDelivery:   accs[idxComboCSDelivery].Estimate().Mean,
	}
}

// runCombos measures every combo through the executor of ctx's plan
// (montecarlo.Submit), one task of a montecarlo.ForkCapped per combo,
// capped at Workers() so that no more simulations are alive at once
// than the pool runs. Each combo's request carries its task's plan
// position, so layers that record per-point ledgers (sampling.csv)
// see combo order. Results are assembled in combo order, so the
// outcome is bit-identical at any pool width, on any executor honoring
// the accumulator contract. A failed combo panics with a
// *montecarlo.ExecError.
func runCombos(ctx context.Context, tb *Testbed, p ExperimentParams, combos [][2]Link, seeds []uint64) []ComboResult {
	out := make([]ComboResult, len(combos))
	memoPut(tb) // in-process kernel evaluations reuse this realization
	montecarlo.ForkCapped(ctx, len(combos), montecarlo.Workers(), func(ctx context.Context, i int) {
		c := combos[i]
		accs, err := montecarlo.Submit(ctx, comboRequest(tb, p, c[0], c[1], seeds[i]))
		if err == nil && len(accs) != nComboIdx {
			err = fmt.Errorf("executor returned %d components, want %d", len(accs), nComboIdx)
		}
		if err != nil {
			panic(&montecarlo.ExecError{Kernel: KernelCombo, Err: err})
		}
		out[i] = comboFromAccs(c[0], c[1], accs)
	})
	return out
}
