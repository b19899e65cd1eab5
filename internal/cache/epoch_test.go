package cache

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	_ "carriersense/internal/core" // registers core/policy-diff
	"carriersense/internal/montecarlo"
)

var update = flag.Bool("update", false, "rewrite testdata/key_epoch.json from this tree")

// keyGolden is the committed record of one fixed request under one
// KeyEpoch: its cache key and the accumulator states a cache entry
// for it would hold.
type keyGolden struct {
	KeyEpoch int    `json:"key_epoch"`
	Key      string `json:"key"`
	States   string `json:"states"` // hex of the states' binary form
}

// TestKeyEpochGolden guards KeyEpoch: if the fixed request's key or
// result moves while KeyEpoch stays, a new binary would serve the
// persisted entries of an old one as its own.
func TestKeyEpochGolden(t *testing.T) {
	const regen = "go test ./internal/cache -run TestKeyEpochGolden -update"
	req := montecarlo.Request{
		Kernel:  "core/policy-diff",
		Params:  json.RawMessage(`{"env":{"alpha":3,"sigma_db":8,"noise_db":-65,"capacity":{}},"rmax":40,"d":55}`),
		Seed:    7,
		Samples: 2 * montecarlo.ShardSize,
		Dim:     2,
	}
	accs, err := montecarlo.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var states []byte
	for _, st := range toStates(accs) {
		states = st.AppendBinary(states)
	}
	got := keyGolden{KeyEpoch: KeyEpoch, Key: Key(req), States: hex.EncodeToString(states)}

	path := filepath.Join("testdata", "key_epoch.json")
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
	var want keyGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v; regenerate it with: %s", path, err, regen)
	}
	switch {
	case got == want:
	case want.KeyEpoch == KeyEpoch:
		t.Fatalf("the fixed request's cache key or result changed but KeyEpoch is still %d:\n got  %+v\n want %+v\n"+
			"bump KeyEpoch, then regenerate %s with: %s", KeyEpoch, got, want, path, regen)
	default:
		t.Fatalf("KeyEpoch is %d but %s records epoch %d; regenerate it with: %s", KeyEpoch, path, want.KeyEpoch, regen)
	}
}
