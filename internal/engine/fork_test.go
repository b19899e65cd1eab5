package engine_test

// The tables scenario runs its independent points as concurrent tasks
// (montecarlo.Fork). These tests cover what that must not break: a
// failed estimation still ends the run with an error, and a trace
// still reads as one timeline per lane.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sort"
	"testing"

	"carriersense/internal/engine"
	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
)

var errInjected = errors.New("injected executor failure")

// failingRow fails every request of one tables row estimate and
// evaluates the rest in-process.
type failingRow struct{ seed uint64 }

func (f failingRow) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	if req.Seed == f.seed {
		return nil, errInjected
	}
	return montecarlo.Local{}.EstimateVec(ctx, req)
}

func TestTablesOverAFailingExecutorReturnsAnError(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		setWidth(t, parallel)
		_, err := engine.Run(context.Background(), "tables", engine.Options{
			Seed:  "12345",
			Scale: "smoke",
			// Row 1's estimate: seed + 1·31.
			Executor: failingRow{seed: 12345 + 31},
		})
		if !errors.Is(err, errInjected) {
			t.Errorf("parallel=%d: err = %v, want the injected failure", parallel, err)
		}
	}
}

func TestTracedTablesLanesNeverPartiallyOverlap(t *testing.T) {
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	setWidth(t, 2)
	if _, err := engine.Run(context.Background(), "tables", engine.Options{
		Seed: "12345", Scale: "smoke", Sampler: "auto", RelErr: 0.01,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	lanes := map[int][]obs.TraceEvent{}
	estimateLanes := map[int]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		lanes[ev.Tid] = append(lanes[ev.Tid], ev)
		if ev.Name == "estimate" {
			estimateLanes[ev.Tid] = true
		}
	}
	if len(estimateLanes) < 2 {
		t.Errorf("estimate spans on %d lane(s); concurrent table points should use more than one", len(estimateLanes))
	}
	// Span times are whole microseconds, start and duration each
	// rounded down, so a nested span may seem to end up to 2 µs late.
	const slack = 2
	for tid, spans := range lanes {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Ts < spans[j].Ts })
		for i, a := range spans {
			aEnd := a.Ts + a.Dur
			for _, b := range spans[i+1:] {
				if b.Ts >= aEnd {
					break
				}
				if bEnd := b.Ts + b.Dur; bEnd > aEnd+slack && aEnd-b.Ts > slack {
					t.Fatalf("lane %d: %s [%d, %d] and %s [%d, %d] partially overlap",
						tid, a.Name, a.Ts, aEnd, b.Name, b.Ts, bEnd)
				}
			}
		}
	}
}
