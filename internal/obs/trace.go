package obs

// Shard-lifecycle tracing in the Chrome trace_event JSON format —
// the file written by `cs run -trace F` opens directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Events are complete spans
// (ph "X") and instants (ph "i") on named threads: tid 1 is the
// engine, tids 10+ are local pool workers, tids 100+ are remote
// workers. The tracer is globally installed (SetTracer) so every
// layer can emit without plumbing; when no tracer is installed the
// per-event cost is one atomic pointer load, and instrumentation
// sites guard their argument-map construction behind that check so
// the disabled path allocates nothing.

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEvent is one entry in the traceEvents array. Timestamps and
// durations are microseconds, per the trace_event spec.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Well-known tracer thread IDs. Local pool workers use TidLocalBase+k,
// remote workers TidRemoteBase+i in fleet order. TidServer is the
// worker-process lane: `cs serve -trace` records every shard batch it
// evaluates there, the other end of the coordinator's dispatch spans.
// Estimation tasks that run beside the engine's own (montecarlo.Fork)
// record their estimate spans on TidTaskBase+k. Pool and task lanes
// are handed out lowest-free, so lanes busy at the same time differ.
const (
	TidEngine     = 1
	TidServer     = 2
	TidLocalBase  = 10
	TidRemoteBase = 100
	TidTaskBase   = 1000
)

// DefaultTraceCap bounds the event buffer: a runaway -relerr run can
// evaluate hundreds of thousands of shards, and an unbounded trace of
// that would exhaust memory before it exhausted patience. Dropped
// events are counted and reported in the trace metadata.
const DefaultTraceCap = 1 << 20

// Tracer collects trace events into a bounded in-memory buffer.
type Tracer struct {
	start   time.Time
	cap     int
	mu      sync.Mutex
	events  []TraceEvent
	threads map[int]string
	dropped int64
}

// NewTracer returns a tracer with the default event cap.
func NewTracer() *Tracer { return NewTracerCap(DefaultTraceCap) }

// NewTracerCap returns a tracer holding at most cap events.
func NewTracerCap(cap int) *Tracer {
	if cap < 1 {
		cap = 1
	}
	return &Tracer{start: time.Now(), cap: cap, threads: map[int]string{}}
}

// Now returns the tracer-relative timestamp for the current instant.
// Span callers capture it before the work so the span's Ts precedes
// its Dur.
func (t *Tracer) Now() time.Duration { return time.Since(t.start) }

// Span records a completed slice of work that started at the
// tracer-relative instant `start` (from Now) and just finished.
func (t *Tracer) Span(name, cat string, tid int, start time.Duration, args map[string]any) {
	end := time.Since(t.start)
	dur := end - start
	if dur < 0 {
		dur = 0
	}
	t.add(TraceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts: start.Microseconds(), Dur: dur.Microseconds(),
		Pid: 1, Tid: tid, Args: args,
	})
}

// Instant records a point event (a retry, a timeout, a worker death).
func (t *Tracer) Instant(name, cat string, tid int, args map[string]any) {
	t.add(TraceEvent{
		Name: name, Cat: cat, Ph: "i",
		Ts:  time.Since(t.start).Microseconds(),
		Pid: 1, Tid: tid, Args: args,
	})
}

// NameThread labels a tid lane in the viewer ("engine", "worker
// http://host:port", ...). Idempotent; first name wins.
func (t *Tracer) NameThread(tid int, name string) {
	t.mu.Lock()
	if _, ok := t.threads[tid]; !ok {
		t.threads[tid] = name
	}
	t.mu.Unlock()
}

func (t *Tracer) add(ev TraceEvent) {
	t.mu.Lock()
	if len(t.events) >= t.cap {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the on-disk object format: Perfetto accepts either a
// bare array or this object form; the object form lets us attach
// metadata alongside the events.
type traceFile struct {
	TraceEvents []TraceEvent   `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// WriteJSON renders the buffered events as a trace_event JSON object.
// Thread-name metadata events are synthesized from NameThread calls.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := append([]TraceEvent(nil), t.events...)
	dropped := t.dropped
	tids := make([]int, 0, len(t.threads))
	for tid := range t.threads {
		tids = append(tids, tid)
	}
	names := make(map[int]string, len(t.threads))
	for tid, name := range t.threads {
		names[tid] = name
	}
	t.mu.Unlock()

	// Metadata events (ph "M") give lanes human names in the viewer.
	meta := make([]TraceEvent, 0, len(tids))
	for tid, name := range names {
		meta = append(meta, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	// Deterministic order for the metadata block (map iteration isn't).
	for i := 0; i < len(meta); i++ {
		for j := i + 1; j < len(meta); j++ {
			if meta[j].Tid < meta[i].Tid {
				meta[i], meta[j] = meta[j], meta[i]
			}
		}
	}
	out := traceFile{TraceEvents: append(meta, events...)}
	if dropped > 0 {
		out.Metadata = map[string]any{"dropped_events": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile writes the trace to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The globally installed tracer. A nil pointer means tracing is off;
// hot paths nil-check CurrentTracer (one atomic load) before building
// any event arguments.
var globalTracer atomic.Pointer[Tracer]

// SetTracer installs (or, with nil, removes) the global tracer.
func SetTracer(t *Tracer) { globalTracer.Store(t) }

// CurrentTracer returns the installed tracer, or nil when tracing is
// off. Callers must nil-check — and should build Span/Instant args
// only inside that check.
func CurrentTracer() *Tracer { return globalTracer.Load() }
