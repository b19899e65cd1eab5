package dist

// Binary shard stream tests: refused upgrades, the determinism
// contract on the framed wire, loud failure on corrupt frames, mid-run
// worker death on persistent connections, and graceful drain. These
// live in the internal package so misbehaving workers can be built
// straight from the frame codec.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carriersense/internal/montecarlo"
)

// streamTestRequest builds a request against the dist-test/vec kernel
// (registered by the external test package's init; both test packages
// link into one binary).
func streamTestRequest(samples int) montecarlo.Request {
	return montecarlo.Request{
		Kernel: "dist-test/vec", Params: json.RawMessage(`{"scale":2.5}`),
		Seed: 424242, Samples: samples, Dim: 3,
	}
}

func localWant(t *testing.T, req montecarlo.Request) []montecarlo.Estimate {
	t.Helper()
	accs, err := montecarlo.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return toEstimates(accs)
}

func toEstimates(accs []montecarlo.Accumulator) []montecarlo.Estimate {
	out := make([]montecarlo.Estimate, len(accs))
	for i := range accs {
		out[i] = accs[i].Estimate()
	}
	return out
}

func requireIdentical(t *testing.T, got []montecarlo.Accumulator, want []montecarlo.Estimate, label string) {
	t.Helper()
	for j, e := range toEstimates(got) {
		if e != want[j] {
			t.Errorf("%s: component %d: %+v != local %+v", label, j, e, want[j])
		}
	}
}

// workerStats GETs a worker's /stats.
func workerStats(t *testing.T, host string) Stats {
	t.Helper()
	resp, err := http.Get("http://" + host + PathStats)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// startHandler serves h on a loopback test server and returns its
// host:port.
func startHandler(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// startWorker boots one full worker and returns its host:port.
func startWorker(t *testing.T) string {
	t.Helper()
	return startHandler(t, NewServer())
}

// startRefusingWorker boots a worker that refuses the stream upgrade
// (PathStream 404s, as on a build without it); every other path is a
// current worker.
func startRefusingWorker(t *testing.T) string {
	t.Helper()
	inner := NewServer()
	return startHandler(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathStream {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
}

// frameWorker returns a worker handler whose stream endpoint hands the
// upgraded connection to serve; all other paths behave like a current
// worker. Used to build misbehaving peers.
func frameWorker(serve func(ss *streamSession)) http.Handler {
	inner := NewServer()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathStream {
			inner.ServeHTTP(w, r)
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer conn.Close()
		ss := &streamSession{conn: conn, br: buf.Reader, bw: bufio.NewWriter(conn)}
		fmt.Fprintf(ss.bw, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", streamUpgrade)
		if ss.bw.Flush() != nil {
			return
		}
		serve(ss)
	})
}

func startFrameWorker(t *testing.T, serve func(ss *streamSession)) string {
	t.Helper()
	return startHandler(t, frameWorker(serve))
}

// batchWorker is the shared test double for fleet-failure tests: a
// frame worker that runs the hello, request and batch frames itself
// and hands every batch to hook with its 1-based ordinal across all of
// the worker's connections. hook may block (a held, slow or wedged
// worker). When it returns true the batch is answered with real
// EvaluateShards results, so delivered work must merge bit-identically;
// false severs the connection mid-batch, as a crashed worker would.
func batchWorker(hook func(batch int64) bool) http.Handler {
	var batches atomic.Int64
	return frameWorker(func(ss *streamSession) {
		var scratch []byte
		if helloExchange(ss, &scratch) != nil {
			return
		}
		reqs := map[uint32]montecarlo.Request{}
		for {
			t, payload, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			switch t {
			case frameRequest:
				id, r, err := decodeRequest(payload)
				if err != nil {
					return
				}
				reqs[id] = r
			case frameBatch:
				id, indices, err := decodeBatch(payload)
				if err != nil || !hook(batches.Add(1)) {
					return // the deferred close severs the conn mid-batch
				}
				r := reqs[id]
				accs, err := montecarlo.EvaluateShards(r, indices)
				if err != nil {
					return
				}
				if writeFrame(ss.bw, frameResult, encodeResult(id, r.Dim, indices, accs)) != nil || ss.bw.Flush() != nil {
					return
				}
			default:
				return
			}
		}
	})
}

// helloExchange performs the worker half of the handshake.
func helloExchange(ss *streamSession, scratch *[]byte) error {
	t, payload, err := readFrame(ss.br, scratch)
	if err != nil || t != frameHello {
		return fmt.Errorf("no hello: %v", err)
	}
	if _, err := decodeHello(payload); err != nil {
		return err
	}
	if err := writeFrame(ss.bw, frameHello, encodeHello()); err != nil {
		return err
	}
	return ss.bw.Flush()
}

func TestBinaryWireCarriesTheRunAndStaysBitIdentical(t *testing.T) {
	req := streamTestRequest(6*montecarlo.ShardSize + 77)
	want := localWant(t, req)
	hosts := []string{startWorker(t), startWorker(t)}
	remote, err := NewRemote(hosts, RemoteOptions{BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, accs, want, "binary wire")

	var streams, requests, shards int64
	for _, h := range hosts {
		st := workerStats(t, h)
		streams += st.Streams
		requests += st.Requests
		shards += st.Shards
	}
	if streams == 0 || requests == 0 {
		t.Fatalf("no stream traffic recorded (streams=%d batches=%d)", streams, requests)
	}
	if wantShards := int64(montecarlo.ShardCount(req.Samples)); shards != wantShards {
		t.Errorf("fleet evaluated %d shards, plan has %d", shards, wantShards)
	}
}

func TestStreamsPersistAcrossEstimations(t *testing.T) {
	host := startWorker(t)
	remote, err := NewRemote([]string{host})
	if err != nil {
		t.Fatal(err)
	}
	req := streamTestRequest(3 * montecarlo.ShardSize)
	for i := 0; i < 3; i++ {
		if _, err := remote.EstimateVec(context.Background(), req); err != nil {
			t.Fatalf("estimation %d: %v", i, err)
		}
	}
	if st := workerStats(t, host); st.Streams != 1 {
		t.Errorf("3 estimations opened %d streams; want 1 pooled connection", st.Streams)
	}
}

func TestRefusedUpgradeAbandonsWorker(t *testing.T) {
	req := streamTestRequest(4 * montecarlo.ShardSize)
	want := localWant(t, req)
	refusing := startRefusingWorker(t)
	remote, err := NewRemote([]string{startWorker(t), refusing})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("fleet with one refusing worker failed: %v", err)
	}
	requireIdentical(t, accs, want, "around a refusing worker")
	if st := workerStats(t, refusing); st.Shards != 0 {
		t.Errorf("worker that refused the upgrade evaluated %d shards", st.Shards)
	}

	// A fleet that refuses every upgrade must fail loudly.
	lonely, err := NewRemote([]string{startRefusingWorker(t)}, RemoteOptions{ReadmitBase: ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lonely.EstimateVec(context.Background(), req); err == nil {
		t.Fatal("run against an all-refusing fleet succeeded; want loud failure")
	} else if !strings.Contains(err.Error(), "refused") {
		t.Errorf("error does not say the upgrade was refused: %v", err)
	}
	// ReadmitOff: the abandoned worker gets no probe loop.
	h := lonely.hosts[0]
	h.mu.Lock()
	dead, probing := h.health == hostDead, h.probing
	h.mu.Unlock()
	if !dead || probing {
		t.Errorf("with ReadmitOff the refusing worker is dead=%v, probing=%v; want dead and unprobed", dead, probing)
	}
}

func TestUpgradeRefusedWhileDrainingIsNotPermanent(t *testing.T) {
	// A worker whose first upgrade lands in a drain window answers 503
	// and is healthy afterwards. Once readmitted it must carry work over
	// a stream again, not stay on a fallback for the Remote's lifetime.
	req := streamTestRequest(4 * montecarlo.ShardSize)
	want := localWant(t, req)
	inner := NewServer()
	var refused atomic.Bool
	flapping := startHandler(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathStream && refused.CompareAndSwap(false, true) {
			http.Error(w, "dist: worker is draining", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	remote, err := NewRemote([]string{startWorker(t), flapping}, RemoteOptions{
		BatchSize: 1, ReadmitBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	deadline := time.Now().Add(10 * time.Second)
	for workerStats(t, flapping).Streams == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker that refused one upgrade (refused=%v) never served over a stream again", refused.Load())
		}
		accs, err := remote.EstimateVec(context.Background(), req)
		if err != nil {
			t.Fatalf("estimation: %v", err)
		}
		requireIdentical(t, accs, want, "around a draining refusal")
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCorruptResultFrameFailsLoudlyNamingTheWorker(t *testing.T) {
	host := startFrameWorker(t, func(ss *streamSession) {
		var scratch []byte
		if helloExchange(ss, &scratch) != nil {
			return
		}
		for {
			t, _, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			if t != frameBatch {
				continue // request frames carry no reply
			}
			// Answer the batch with garbage: a result frame whose payload
			// cannot possibly parse.
			_ = writeFrame(ss.bw, frameResult, []byte{0xde, 0xad, 0xbe, 0xef})
			_ = ss.bw.Flush()
		}
	})
	remote, err := NewRemote([]string{host})
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.EstimateVec(context.Background(), streamTestRequest(2*montecarlo.ShardSize))
	if err == nil {
		t.Fatal("run over a corrupt stream succeeded")
	}
	if !strings.Contains(err.Error(), host) {
		t.Errorf("corrupt-frame error does not name the offending worker %s: %v", host, err)
	}
}

func TestTruncatedFrameFailsLoudly(t *testing.T) {
	host := startFrameWorker(t, func(ss *streamSession) {
		var scratch []byte
		if helloExchange(ss, &scratch) != nil {
			return
		}
		for {
			t, _, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			if t != frameBatch {
				continue
			}
			// Claim a large payload, deliver a few bytes, hang up: the
			// coordinator must read this as a truncated frame.
			var hdr [5]byte
			hdr[0] = 0xff
			hdr[1] = 0x01
			hdr[4] = byte(frameResult)
			ss.bw.Write(hdr[:])
			ss.bw.Write([]byte{1, 2, 3})
			ss.bw.Flush()
			ss.conn.Close()
			return
		}
	})
	remote, err := NewRemote([]string{host})
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.EstimateVec(context.Background(), streamTestRequest(montecarlo.ShardSize))
	if err == nil {
		t.Fatal("run over a truncating stream succeeded")
	}
	if !strings.Contains(err.Error(), host) {
		t.Errorf("truncated-frame error does not name the worker %s: %v", host, err)
	}
}

func TestMalformedBatchFramesGetFatalErrorFrame(t *testing.T) {
	// Malformed and invalid jobs are the caller's mistake: the worker
	// answers with a fatal error frame, so the coordinator abandons
	// rather than retries, and never with a result.
	host := startWorker(t)
	request := func(samples, dim int, sampler string) []byte {
		payload, err := encodeRequest(1, montecarlo.Request{
			Kernel: "dist-test/vec", Params: json.RawMessage(`{"scale":2.5}`), Seed: 1, Samples: samples, Dim: dim,
			Sampler: sampler,
		})
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	for _, c := range []struct {
		name    string
		request []byte
		indices []int
	}{
		{"request not JSON", append([]byte{1, 0, 0, 0}, "{not json"...), []int{0}},
		{"index out of range", request(montecarlo.ShardSize, 3, ""), []int{9}},
		{"no indices", request(montecarlo.ShardSize, 3, ""), []int{}},
		{"duplicate index", request(4*montecarlo.ShardSize, 3, ""), []int{2, 2}},
		// A 3-component kernel asked for 1: rejected before evaluation,
		// not an out-of-range panic that kills the worker.
		{"dim too small", request(montecarlo.ShardSize, 1, ""), []int{0}},
		// A sampler an older coordinator still knows but this worker
		// no longer registers.
		{"retired sampler", request(montecarlo.ShardSize, 3, "antithetic"), []int{0}},
		{"retired cv sampler", request(montecarlo.ShardSize, 3, "cv"), []int{0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc, err := dialStream(context.Background(), "http://"+host)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.close()
			if err := writeFrame(sc.bw, frameRequest, c.request); err != nil {
				t.Fatal(err)
			}
			if err := sc.sendBatch(1, c.indices); err != nil {
				t.Fatal(err)
			}
			sc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			ft, payload, err := readFrame(sc.br, &sc.scratch)
			if err != nil || ft != frameError {
				t.Fatalf("got %v frame, err %v; want an error frame", ft, err)
			}
			if fatal, msg, err := decodeError(payload); err != nil || !fatal {
				t.Errorf("error frame fatal=%v msg=%q err=%v; want fatal", fatal, msg, err)
			}
		})
	}
}

func TestBinaryWorkerDiesMidRunFleetSurvives(t *testing.T) {
	req := streamTestRequest(9 * montecarlo.ShardSize)
	want := localWant(t, req)

	// A worker that answers `survives` batch frames correctly — real
	// evaluations, so its delivered work must merge bit-identically —
	// then drops every connection, dead for good.
	const survives = 2
	var served atomic.Int64
	died := make(chan struct{})
	var diedOnce sync.Once
	flakyHost := startHandler(t, batchWorker(func(batch int64) bool {
		served.Store(batch)
		if batch <= survives {
			return true
		}
		diedOnce.Do(func() { close(died) })
		return false
	}))
	// The healthy worker opens its stream only once the flaky one has
	// died, so the death path runs on any schedule: it holds at most one
	// claimed shard, leaving the flaky worker the three it needs.
	inner := NewServer()
	healthy := startHandler(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathStream {
			<-died
		}
		inner.ServeHTTP(w, r)
	}))
	remote, err := NewRemote([]string{healthy, flakyHost}, RemoteOptions{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run with mid-stream worker death failed: %v", err)
	}
	if served.Load() <= survives {
		t.Fatalf("flaky worker saw %d batches; the death path was never exercised", served.Load())
	}
	requireIdentical(t, accs, want, "binary wire after mid-run death")
}

func TestServeDrainsStreamsWithGoodbye(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, "127.0.0.1:0", ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-serveErr:
		t.Fatalf("Serve exited before ready: %v", err)
	}

	sc, err := dialStream(context.Background(), "http://"+addr.String())
	if err != nil {
		t.Fatalf("dial stream: %v", err)
	}
	defer sc.close()
	req := streamTestRequest(2 * montecarlo.ShardSize)
	id, err := sc.sendRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.sendBatch(id, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	sc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	ft, payload, err := readFrame(sc.br, &sc.scratch)
	if err != nil || ft != frameResult {
		t.Fatalf("want result frame before drain, got %v frame, err %v", ft, err)
	}
	if _, _, err := decodeResult(payload, []int{0, 1}, req.Dim); err != nil {
		t.Fatalf("pre-drain result corrupt: %v", err)
	}

	cancel() // SIGINT equivalent: the worker must drain, not vanish
	ft, _, err = readFrame(sc.br, &sc.scratch)
	if err != nil || ft != frameGoodbye {
		t.Fatalf("want goodbye frame on drain, got %v frame, err %v", ft, err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful drain; want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

func TestBatchFrameRoundTripCompressesRanges(t *testing.T) {
	indices := []int{3, 4, 5, 6, 9, 11, 12}
	payload := encodeBatch(7, indices)
	// 3 runs: [3,+4) [9,+1) [11,+2) → 8-byte header + 3×8 bytes.
	if len(payload) != 8+3*8 {
		t.Errorf("batch payload is %d bytes; want %d (3 ranges)", len(payload), 8+3*8)
	}
	id, got, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 {
		t.Errorf("round-tripped id %d, want 7", id)
	}
	if fmt.Sprint(got) != fmt.Sprint(indices) {
		t.Errorf("round-tripped indices %v, want %v", got, indices)
	}
}
