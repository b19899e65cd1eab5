package dist

// Binary shard stream tests: wire negotiation on mixed fleets, the
// determinism contract on the framed wire, loud failure on corrupt
// frames, mid-run worker death on persistent connections, shard
// timeouts, and graceful drain. These live in the internal package so
// misbehaving workers can be built straight from the frame codec.

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
	accs, err := Local{}.EstimateVec(context.Background(), req)
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

// startWorker boots one full worker and returns its host:port.
func startWorker(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(NewServer())
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// startJSONOnlyWorker boots a worker that predates the stream
// protocol: PathStream 404s, everything else is a current worker.
func startJSONOnlyWorker(t *testing.T) string {
	t.Helper()
	inner := NewServer()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathStream {
			http.NotFound(w, r)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// startFrameWorker boots a worker whose stream endpoint hands the
// upgraded connection to serve; all other paths behave like a current
// worker. Used to build misbehaving peers.
func startFrameWorker(t *testing.T, serve func(ss *streamSession)) string {
	t.Helper()
	inner := NewServer()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
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

	var streams, streamBatches, shards int64
	for _, h := range hosts {
		st := workerStats(t, h)
		streams += st.Streams
		streamBatches += st.StreamBatches
		shards += st.Shards
		if st.Requests != st.StreamBatches {
			t.Errorf("worker %s: %d requests but %d stream batches — some work fell back to JSON", h, st.Requests, st.StreamBatches)
		}
	}
	if streams == 0 || streamBatches == 0 {
		t.Fatalf("no stream traffic recorded (streams=%d batches=%d); the binary wire was never used", streams, streamBatches)
	}
	if wantShards := int64(montecarlo.ShardCount(req.Samples)); shards != wantShards {
		t.Errorf("fleet evaluated %d shards, plan has %d", shards, wantShards)
	}
}

func TestStreamsPersistAcrossEstimations(t *testing.T) {
	host := startWorker(t)
	remote, err := NewRemote([]string{host}, RemoteOptions{Concurrency: 1})
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

func TestJSONOnlyWorkerNegotiatesDown(t *testing.T) {
	req := streamTestRequest(4*montecarlo.ShardSize + 9)
	want := localWant(t, req)
	host := startJSONOnlyWorker(t)
	remote, err := NewRemote([]string{host})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run against a JSON-only worker failed instead of negotiating down: %v", err)
	}
	requireIdentical(t, accs, want, "negotiated-down wire")
	st := workerStats(t, host)
	if st.Streams != 0 {
		t.Errorf("JSON-only worker reports %d streams", st.Streams)
	}
	if wantShards := int64(montecarlo.ShardCount(req.Samples)); st.Shards != wantShards {
		t.Errorf("worker evaluated %d shards over JSON, plan has %d", st.Shards, wantShards)
	}
}

func TestMixedWireFleetStaysBitIdentical(t *testing.T) {
	req := streamTestRequest(8 * montecarlo.ShardSize)
	want := localWant(t, req)
	binHost, jsonHost := startWorker(t), startJSONOnlyWorker(t)
	remote, err := NewRemote([]string{binHost, jsonHost}, RemoteOptions{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("mixed-wire fleet failed: %v", err)
	}
	requireIdentical(t, accs, want, "mixed-wire fleet")
	binStats, jsonStats := workerStats(t, binHost), workerStats(t, jsonHost)
	if jsonStats.Streams != 0 {
		t.Errorf("JSON-only worker reports %d streams", jsonStats.Streams)
	}
	if total, plan := binStats.Shards+jsonStats.Shards, int64(montecarlo.ShardCount(req.Samples)); total != plan {
		t.Errorf("fleet evaluated %d shards, plan has %d (negotiation lost or duplicated work)", total, plan)
	}
}

func TestWireBinaryAbandonsJSONOnlyWorker(t *testing.T) {
	req := streamTestRequest(4 * montecarlo.ShardSize)
	want := localWant(t, req)
	binHost, jsonHost := startWorker(t), startJSONOnlyWorker(t)
	remote, err := NewRemote([]string{binHost, jsonHost}, RemoteOptions{Wire: WireBinary})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("-wire binary with one capable worker failed: %v", err)
	}
	requireIdentical(t, accs, want, "wire=binary")
	if st := workerStats(t, jsonHost); st.Shards != 0 {
		t.Errorf("JSON-only worker evaluated %d shards under -wire binary", st.Shards)
	}

	// An all-JSON fleet under -wire binary must fail, not degrade.
	lonely, err := NewRemote([]string{startJSONOnlyWorker(t)}, RemoteOptions{Wire: WireBinary})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lonely.EstimateVec(context.Background(), req); err == nil {
		t.Fatal("-wire binary against a JSON-only fleet succeeded; want loud failure")
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
	remote, err := NewRemote([]string{host}, RemoteOptions{HostFailLimit: 2})
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
	remote, err := NewRemote([]string{host}, RemoteOptions{HostFailLimit: 1})
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

func TestBinaryWorkerDiesMidRunFleetSurvives(t *testing.T) {
	req := streamTestRequest(9 * montecarlo.ShardSize)
	want := localWant(t, req)

	// A worker that answers `survives` batch frames correctly — real
	// evaluations, so its delivered work must merge bit-identically —
	// then drops every connection, dead for good.
	var served atomic.Int64
	const survives = 2
	died := make(chan struct{})
	var diedOnce sync.Once
	flakyHost := startFrameWorker(t, func(ss *streamSession) {
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
				if served.Add(1) > survives {
					diedOnce.Do(func() { close(died) })
					return // the deferred close severs the conn mid-batch
				}
				id, indices, err := decodeBatch(payload)
				if err != nil {
					return
				}
				r := reqs[id]
				accs, err := montecarlo.EvaluateShards(r, indices)
				if err != nil {
					return
				}
				if writeFrame(ss.bw, frameResult, encodeResult(id, r.Dim, indices, accs)) != nil {
					return
				}
				if ss.bw.Flush() != nil {
					return
				}
			default:
				return
			}
		}
	})
	// The healthy worker opens its stream only once the flaky one has
	// died, so the death path runs on any schedule: it holds at most one
	// claimed shard, leaving the flaky worker the three it needs.
	inner := NewServer()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathStream {
			<-died
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(healthy.Close)
	hosts := []string{strings.TrimPrefix(healthy.URL, "http://"), flakyHost}
	remote, err := NewRemote(hosts, RemoteOptions{BatchSize: 1, Concurrency: 1, HostFailLimit: 2})
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

func TestShardTimeoutRedispatchesToSurvivors(t *testing.T) {
	req := streamTestRequest(5 * montecarlo.ShardSize)
	want := localWant(t, req)

	// A black hole: accepts batches, never answers them.
	var swallowed atomic.Int64
	holeHost := startFrameWorker(t, func(ss *streamSession) {
		var scratch []byte
		if helloExchange(ss, &scratch) != nil {
			return
		}
		for {
			t, _, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			if t == frameBatch {
				swallowed.Add(1)
			}
		}
	})
	hosts := []string{startWorker(t), holeHost}
	remote, err := NewRemote(hosts, RemoteOptions{
		BatchSize: 1, Concurrency: 1, HostFailLimit: 2,
		ShardTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run with a black-hole worker failed: %v", err)
	}
	if swallowed.Load() == 0 {
		t.Fatal("black hole never swallowed a batch; timeout path not exercised")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("run took %v; shard timeout did not re-dispatch promptly", elapsed)
	}
	requireIdentical(t, accs, want, "after shard-timeout re-dispatch")
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

	sc, err := dialStream(context.Background(), "http://"+addr.String(), 5*time.Second)
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

func TestParseWire(t *testing.T) {
	cases := map[string]Wire{"": WireAuto, "auto": WireAuto, "json": WireJSON, "binary": WireBinary}
	for in, want := range cases {
		got, err := ParseWire(in)
		if err != nil || got != want {
			t.Errorf("ParseWire(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseWire("carrier-pigeon"); err == nil {
		t.Error("ParseWire accepted nonsense")
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
