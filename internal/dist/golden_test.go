package dist

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"carriersense/internal/montecarlo"
)

var update = flag.Bool("update", false, "rewrite testdata/proto_frames.json from this tree")

// protoGolden is the committed record of the frames a coordinator
// sends for one fixed request under one ProtoVersion.
type protoGolden struct {
	ProtoVersion int    `json:"proto_version"`
	Frames       string `json:"frames"` // hex of the request and batch frames
}

// TestProtoVersionGolden guards ProtoVersion: if the bytes a
// coordinator puts on the wire for a fixed request move while
// ProtoVersion stays, a worker of the previous version could read them
// differently without rejecting the stream.
func TestProtoVersionGolden(t *testing.T) {
	const regen = "go test ./internal/dist -run TestProtoVersionGolden -update"
	// Every request field is set, so a renamed or re-encoded one moves
	// the bytes; the batch has two index ranges.
	req := montecarlo.Request{
		Kernel:     "core/policy-diff",
		Params:     json.RawMessage(`{"env":{"alpha":3,"sigma_db":8,"noise_db":-65,"capacity":{}},"rmax":40,"d":55}`),
		Seed:       7,
		Samples:    8 * montecarlo.ShardSize,
		Dim:        2,
		Sampler:    "sobol",
		FirstShard: 1,
		Control:    &montecarlo.ControlSpec{Beta: []float64{0.5, 0}, Mean: []float64{1.25, 0}},
	}
	var buf bytes.Buffer
	sc := &streamConn{bw: bufio.NewWriter(&buf)}
	id, err := sc.sendRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.sendBatch(id, []int{1, 2, 3, 6}); err != nil {
		t.Fatal(err)
	}
	got := protoGolden{ProtoVersion: ProtoVersion, Frames: hex.EncodeToString(buf.Bytes())}

	path := filepath.Join("testdata", "proto_frames.json")
	if *update {
		b, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; write it with: %s", err, regen)
	}
	var want protoGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v; regenerate it with: %s", path, err, regen)
	}
	switch {
	case got == want:
	case want.ProtoVersion == ProtoVersion:
		t.Fatalf("the request and batch frame bytes changed but ProtoVersion is still %d:\n got  %s\n want %s\n"+
			"bump ProtoVersion, then regenerate %s with: %s", ProtoVersion, got.Frames, want.Frames, path, regen)
	default:
		t.Fatalf("ProtoVersion is %d but %s records version %d; regenerate it with: %s", ProtoVersion, path, want.ProtoVersion, regen)
	}
}
