package dist

import (
	"bufio"
	"context"
	"encoding/binary"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"carriersense/internal/montecarlo"
)

// The protocol version guard: a mixed-version fleet must fail loudly
// in both directions, never silently mis-serve (an old worker ignores
// the request fields it does not know and would return cleanly merging
// but wrong accumulators). The version travels in the hello frames.

// oldHello is the hello payload of a peer one protocol version behind.
func oldHello() []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[:4], frameMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(ProtoVersion-1))
	return b
}

func TestWorkerRejectsWrongProtocolVersion(t *testing.T) {
	// An old coordinator upgrades and says hello with the previous
	// version: the worker answers with its own version, then closes
	// without serving anything sent after the hello.
	host := startWorker(t)
	conn, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := &streamConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := sc.upgrade(host); err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(sc.bw, frameHello, oldHello()); err != nil {
		t.Fatal(err)
	}
	if err := sc.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := readFrame(sc.br, &sc.scratch)
	if err != nil || ft != frameHello {
		t.Fatalf("want the worker's hello, got %v frame, err %v", ft, err)
	}
	if proto, err := decodeHello(payload); err != nil || proto != ProtoVersion {
		t.Fatalf("worker hello carries version %d (err %v), want %d", proto, err, ProtoVersion)
	}

	// Whatever the old coordinator sends next must go unanswered.
	if id, err := sc.sendRequest(streamTestRequest(montecarlo.ShardSize)); err == nil {
		_ = sc.sendBatch(id, []int{0})
	}
	if ft, _, err := readFrame(sc.br, &sc.scratch); err == nil {
		t.Fatalf("worker answered a version-%d coordinator with a %v frame; want the stream closed", ProtoVersion-1, ft)
	}
	if st := workerStats(t, host); st.Shards != 0 {
		t.Errorf("worker evaluated %d shards for a version-%d coordinator", st.Shards, ProtoVersion-1)
	}
}

func TestCoordinatorRejectsPreVersioningWorker(t *testing.T) {
	// An old worker accepts the upgrade but says hello with the previous
	// version. The coordinator must abandon it without sending it work,
	// and the run must fail with an error that names the protocol.
	var batches atomic.Int64
	host := startFrameWorker(t, func(ss *streamSession) {
		var scratch []byte
		if ft, _, err := readFrame(ss.br, &scratch); err != nil || ft != frameHello {
			return
		}
		if writeFrame(ss.bw, frameHello, oldHello()) != nil || ss.bw.Flush() != nil {
			return
		}
		for {
			ft, _, err := readFrame(ss.br, &scratch)
			if err != nil {
				return
			}
			if ft == frameBatch {
				batches.Add(1)
			}
		}
	})
	remote, err := NewRemote([]string{host}, RemoteOptions{ReadmitBase: ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.EstimateVec(context.Background(), streamTestRequest(montecarlo.ShardSize))
	if err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Errorf("coordinator accepted a version-%d worker: %v", ProtoVersion-1, err)
	}
	if n := batches.Load(); n != 0 {
		t.Errorf("coordinator sent %d batches to a version-%d worker", n, ProtoVersion-1)
	}
}
