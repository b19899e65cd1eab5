package prov

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func stampTestDir(t *testing.T) (string, *Manifest) {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"output.txt":   "efficiency 0.9131\n",
		"result.json":  `{"metrics":{"efficiency":0.9131}}` + "\n",
		"metrics.json": `{"cs_engine_runs_total": 1}` + "\n",
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := &Manifest{
		Schema:        SchemaVersion,
		Created:       time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Scenario:      "efficiency",
		Scale:         "paper",
		Seed:          "42",
		Sampler:       "sobol",
		CacheKeyEpoch: 3,
		Exec:          ExecInfo{Parallel: 4, Cache: true, Experiment: "sweep", Repeat: 1},
		Toolchain:     CurrentToolchain(),
		VCS:           CurrentVCS(),
		Variants: []Variant{{
			Variant:     "base",
			Params:      json.RawMessage(`{"seed":42,"gain":2}`),
			Metrics:     map[string]float64{"efficiency": 0.9131},
			WallSeconds: 0.25,
		}},
	}
	if err := Stamp(dir, m); err != nil {
		t.Fatalf("Stamp: %v", err)
	}
	return dir, m
}

func TestStampAndVerifyClean(t *testing.T) {
	dir, m := stampTestDir(t)
	if len(m.Artifacts) != 3 {
		t.Fatalf("manifested %d artifacts, want 3: %+v", len(m.Artifacts), m.Artifacts)
	}
	got, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir on clean dir: %v", err)
	}
	if got.Scenario != "efficiency" || got.Exec.Experiment != "sweep" {
		t.Fatalf("round-trip lost identity: %+v", got)
	}
	if got.ManifestSHA256 == "" {
		t.Fatal("stamped manifest has empty self-hash")
	}
}

// Flipping a single byte of any artifact must fail verification.
func TestVerifyDetectsArtifactFlip(t *testing.T) {
	dir, _ := stampTestDir(t)
	path := filepath.Join(dir, "output.txt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyDir(dir)
	var ve *VerifyError
	if !errorsAs(err, &ve) {
		t.Fatalf("VerifyDir after flip: got %v, want *VerifyError", err)
	}
	if !containsProblem(ve, "output.txt") || !containsProblem(ve, "hash mismatch") {
		t.Fatalf("problems do not name the flipped artifact: %v", ve.Problems)
	}
}

// Editing any manifest field (without re-stamping) must fail the
// self-hash check even if all artifacts are intact.
func TestVerifyDetectsManifestEdit(t *testing.T) {
	dir, _ := stampTestDir(t)
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(raw), `"seed": "42"`, `"seed": "43"`, 1)
	if edited == string(raw) {
		t.Fatal("test setup: seed field not found in manifest")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyDir(dir)
	var ve *VerifyError
	if !errorsAs(err, &ve) {
		t.Fatalf("VerifyDir after manifest edit: got %v, want *VerifyError", err)
	}
	if !containsProblem(ve, "self-hash") {
		t.Fatalf("problems do not mention self-hash: %v", ve.Problems)
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	dir, _ := stampTestDir(t)
	if err := os.WriteFile(filepath.Join(dir, "result.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := VerifyDir(dir)
	var ve *VerifyError
	if !errorsAs(err, &ve) {
		t.Fatalf("got %v, want *VerifyError", err)
	}
	if !containsProblem(ve, "result.json") || !containsProblem(ve, "bytes") {
		t.Fatalf("problems do not report the size mismatch: %v", ve.Problems)
	}
}

func TestVerifyDetectsMissingAndStrayFiles(t *testing.T) {
	dir, _ := stampTestDir(t)
	if err := os.Remove(filepath.Join(dir, "metrics.json")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "extra.txt"), []byte("late\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := VerifyDir(dir)
	var ve *VerifyError
	if !errorsAs(err, &ve) {
		t.Fatalf("got %v, want *VerifyError", err)
	}
	if !containsProblem(ve, "metrics.json: missing") {
		t.Fatalf("missing artifact not reported: %v", ve.Problems)
	}
	if !containsProblem(ve, "extra.txt: present but not manifested") {
		t.Fatalf("stray file not reported: %v", ve.Problems)
	}
}

// The canonical encoding must survive a file round-trip: load a
// stamped manifest back from its indented on-disk form and the
// recomputed self-hash must still match.
func TestSelfHashStableAcrossRoundTrip(t *testing.T) {
	dir, m := stampTestDir(t)
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SelfHash()
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.SelfHash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("self-hash drifted across round-trip: %s != %s", got, want)
	}
}

// testdata/retired-fields-run was stamped by a build whose ExecInfo
// still had the "wire" and "prefetch" fields, and
// testdata/retired-stages-run (cs run curves -scale smoke -seed 5
// -out) by one whose variants still copied timings.csv into
// "stages". A field retired since must not read as an edit, while a
// field added to the file after stamping still must.
func TestManifestWithWireStillVerifies(t *testing.T) {
	src := filepath.Join("testdata", "retired-fields-run")
	m, err := VerifyDir(src)
	if err != nil {
		t.Fatalf("manifest recording retired fields no longer verifies: %v", err)
	}
	if len(m.Exec.Workers) != 1 || !m.Exec.Cache || m.Exec.CacheDir != "cache" {
		t.Errorf("decoded exec %+v, want the fields still in ExecInfo kept", m.Exec)
	}
	staged, err := VerifyDir(filepath.Join("testdata", "retired-stages-run"))
	if err != nil {
		t.Fatalf("manifest recording per-variant stages no longer verifies: %v", err)
	}
	if len(staged.Variants) != 1 || staged.Variants[0].WallSeconds <= 0 {
		t.Errorf("decoded variants %+v, want one with its wall seconds kept", staged.Variants)
	}
	dir := t.TempDir()
	for _, name := range []string{"output.txt", ManifestName} {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == ManifestName {
			raw = []byte(strings.Replace(string(raw), `"prefetch": true`, `"prefetch": true, "hedge": 0.9`, 1))
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = VerifyDir(dir)
	var ve *VerifyError
	if !errorsAs(err, &ve) || !containsProblem(ve, "self-hash") {
		t.Fatalf("VerifyDir after adding an unknown field: got %v, want a self-hash problem", err)
	}
}

func TestFindManifests(t *testing.T) {
	root := t.TempDir()
	a, _ := stampTestDir(t)
	// Nest two stamped dirs plus one unstamped dir under root.
	for _, name := range []string{"exp/sweep/r0", "exp/sweep/r1"} {
		dst := filepath.Join(root, name)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(a, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.MkdirAll(filepath.Join(root, "exp", "unstamped"), 0o755); err != nil {
		t.Fatal(err)
	}
	dirs, err := FindManifests(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Fatalf("found %d manifested dirs, want 2: %v", len(dirs), dirs)
	}
	for _, d := range dirs {
		if _, err := VerifyDir(d); err != nil {
			t.Fatalf("copied run dir fails verification: %v", err)
		}
	}
}

func TestCurrentToolchain(t *testing.T) {
	tc := CurrentToolchain()
	if !strings.HasPrefix(tc.GoVersion, "go") || tc.GOOS == "" || tc.GOARCH == "" {
		t.Fatalf("implausible toolchain: %+v", tc)
	}
}

func errorsAs(err error, target **VerifyError) bool {
	ve, ok := err.(*VerifyError)
	if ok {
		*target = ve
	}
	return ok
}

func containsProblem(ve *VerifyError, substr string) bool {
	for _, p := range ve.Problems {
		if strings.Contains(p, substr) {
			return true
		}
	}
	return false
}
