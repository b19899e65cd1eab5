package main

// Spans are recorded from outside the program: the harness wraps each
// call it makes into a layer — engine.Run, an executor, the cache, the
// worker fleet — and links every span to its caller's through the ctx
// the engine already forwards down its executor chain. Spans stay in
// memory and are written as Chrome trace JSON when the run ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"carriersense/internal/montecarlo"
)

// span is one timed call into a layer.
type span struct {
	ID, Parent int64
	Name       string // layer: iteration, engine, montecarlo, cache, dist, replay
	Phase      string // loop, or the replay pass that issued it
	Kernel     string // executor calls only
	Sampler    string
	Samples    int
	Start, End time.Duration // since the recorder's epoch
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects spans while on. Off, begin costs one atomic load.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	phase string
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), phase: "loop"} }

type spanKey struct{}

// parentSpan returns the ID of the span ctx was opened under, 0 if none.
func parentSpan(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// begin opens a span as a child of ctx's span and returns the context
// carrying it together with the function that closes it. req describes
// an executor call; other spans pass the zero Request.
func (r *recorder) begin(ctx context.Context, name string, req montecarlo.Request) (context.Context, func()) {
	if !r.on.Load() {
		return ctx, func() {}
	}
	s := span{ID: r.ids.Add(1), Parent: parentSpan(ctx), Name: name, Kernel: req.Kernel, Sampler: req.Sampler, Start: time.Since(r.epoch)}
	if req.Kernel != "" {
		s.Samples = req.SampleSpan()
	}
	r.mu.Lock()
	s.Phase = r.phase
	r.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, s.ID), func() {
		s.End = time.Since(r.epoch)
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

func (r *recorder) setPhase(p string) {
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// snapshot returns the spans closed so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// timed is the decorator that times one layer's executor calls.
type timed struct {
	name  string
	inner montecarlo.Executor
	rec   *recorder
}

func (t timed) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	ctx, end := t.rec.begin(ctx, t.name, req)
	defer end()
	return t.inner.EstimateVec(ctx, req)
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may overlap each other — testbed combos run
// concurrently — so the covered part is the union of their intervals,
// clipped to the parent's.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return parent.dur() - covered
}

// childrenOf indexes spans by their parent's ID.
func childrenOf(spans []span) map[int64][]span {
	m := make(map[int64][]span)
	for _, s := range spans {
		m[s.Parent] = append(m[s.Parent], s)
	}
	return m
}

// traceEvent is one Chrome trace_event record, the format Perfetto
// (ui.perfetto.dev) and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceEvents renders one workload's spans as complete events under
// process pid. A track must hold only properly nested spans, so each
// layer gets as many tracks as it has concurrent calls: a span goes to
// the layer's first track that is free at its start.
func traceEvents(pid int, workload string, spans []span) []traceEvent {
	evs := []traceEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": workload}}}
	spans = append([]span(nil), spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type track struct {
		tid int
		end time.Duration
	}
	tracks := map[string][]*track{}
	tid := 0
	for _, s := range spans {
		var t *track
		for _, c := range tracks[s.Name] {
			if c.end <= s.Start {
				t = c
				break
			}
		}
		if t == nil {
			tid++
			t = &track{tid: tid}
			tracks[s.Name] = append(tracks[s.Name], t)
			evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("%s #%d", s.Name, len(tracks[s.Name]))}})
		}
		t.end = s.End
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Kernel != "" {
			args["kernel"] = s.Kernel
			args["sampler"] = s.Sampler
			args["samples"] = s.Samples
		}
		evs = append(evs, traceEvent{
			Name: s.Name, Cat: s.Phase, Ph: "X", Pid: pid, Tid: t.tid,
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3, Args: args,
		})
	}
	return evs
}

// writeTrace writes the events as a Chrome trace JSON file.
func writeTrace(path string, evs []traceEvent) error {
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("marshal trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
