package dist

// The worker side: a small HTTP server around the shared kernel
// registry. `cs serve -listen :port` runs one of these. Coordinators
// upgrade PathStream into a persistent framed connection (stream.go);
// any number of them may stream batches concurrently (the montecarlo
// pool bounds per-batch parallelism, one goroutine per stream provides
// cross-coordinator concurrency). The remaining endpoints are plain
// HTTP probes: /healthz, /stats, and /metrics.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"carriersense/internal/fault"
	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
)

// beginBatchSpan / endBatchSpan bracket one shard-batch evaluation
// with a worker-side trace span (`cs serve -trace`). The worker's
// timeline is the other end of the coordinator's per-worker dispatch
// spans: dispatch minus batch duration is pure wire-and-queue time.
// No tracer armed (the common case) costs one atomic load.
func beginBatchSpan() (*obs.Tracer, time.Duration) {
	tr := obs.CurrentTracer()
	if tr == nil {
		return nil, 0
	}
	return tr, tr.Now()
}

func endBatchSpan(tr *obs.Tracer, start time.Duration, kernel string, shards int) {
	if tr == nil {
		return
	}
	tr.NameThread(obs.TidServer, "server")
	tr.Span("batch "+kernel, "worker", obs.TidServer, start,
		map[string]any{"shards": shards})
}

// Server is a shard worker: it evaluates streamed shard batches against
// the kernel registry linked into the binary and serves health and
// stats probes. The zero value is not usable; call NewServer.
type Server struct {
	mux   *http.ServeMux
	start time.Time

	requests atomic.Int64
	shards   atomic.Int64
	samples  atomic.Int64
	failures atomic.Int64
	streams  atomic.Int64
	inflight atomic.Int64

	draining  atomic.Bool
	streamReg streamRegistry
}

// NewServer returns a ready-to-serve worker.
func NewServer() *Server {
	s := &Server{mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc(PathStream, s.handleStream)
	s.mux.HandleFunc(PathHealthz, s.handleHealthz)
	s.mux.HandleFunc(PathStats, s.handleStats)
	s.mux.Handle(PathMetrics, obs.Default().Handler())
	return s
}

// beginBatch/endBatch bracket one shard batch's evaluation for the
// in-flight accounting (per-Server for /stats, process-wide for the
// cs_worker_inflight_batches gauge). The returned ordinal is this
// worker's 1-based batch count when a fault plan is installed — the
// coordinate @batchN schedule clauses fire on — and 0 otherwise.
func (s *Server) beginBatch() int {
	s.inflight.Add(1)
	wInflight.Inc()
	wRequests.Inc()
	s.requests.Add(1)
	if f := fault.Current(); f != nil {
		return f.WorkerBatch()
	}
	return 0
}

func (s *Server) endBatch() {
	s.inflight.Add(-1)
	wInflight.Dec()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f := fault.Current(); f != nil && f.RefuseRequest() {
		// A refused dial must look like a dead TCP peer, not an HTTP
		// status: a 503 on the stream-upgrade path would read as a
		// refused upgrade and abandon the worker outright instead of
		// exercising the retry path. ErrAbortHandler severs the
		// connection without a response and without a stack trace.
		panic(http.ErrAbortHandler)
	}
	s.mux.ServeHTTP(w, r)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		// Not healthy for new work: fleet probes (and the readmission
		// loop in particular) must not route batches at a worker on its
		// way out.
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(Stats{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Requests:        s.requests.Load(),
		Shards:          s.shards.Load(),
		Samples:         s.samples.Load(),
		Failures:        s.failures.Load(),
		Streams:         s.streams.Load(),
		InflightBatches: s.inflight.Load(),
		Draining:        s.draining.Load(),
		Kernels:         montecarlo.KernelNames(),
	})
}

// DrainGrace bounds how long Serve waits for in-flight shard batches
// after a shutdown signal before severing connections. A shard batch is at most BatchSize
// kernel shards; at `-scale full` that is tens of seconds, so the
// grace is generous rather than snappy — a fleet restart should never
// turn delivered work into spurious re-dispatches.
const DrainGrace = 60 * time.Second

// Serve runs a worker on addr until ctx is canceled or the listener
// fails. ready, when non-nil, receives the bound address once the
// listener is up (useful with ":0"). On cancellation the worker
// drains: it stops accepting work, finishes and delivers in-flight
// shard batches (up to DrainGrace), closes stream connections with a
// goodbye frame, and returns nil.
func Serve(ctx context.Context, addr string, ready chan<- net.Addr) error {
	if addr == "" {
		return errors.New("dist: empty listen address")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	s := NewServer()
	srv := &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	stopped := make(chan struct{})
	defer close(stopped)
	go func() {
		select {
		case <-ctx.Done():
		case <-stopped:
			return
		}
		s.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), DrainGrace)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx) // drains in-flight probe handlers
		s.waitStreams(DrainGrace)     // drains hijacked stream conns
	}()
	if ready != nil {
		ready <- ln.Addr()
	}
	err = srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) && ctx.Err() != nil {
		// Graceful drain: make sure the streams are done before
		// reporting a clean exit (Shutdown does not track hijacked
		// connections).
		s.waitStreams(DrainGrace)
		return nil
	}
	return err
}
