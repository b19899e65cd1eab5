package engine

import (
	"context"
	"os"
	"strings"
	"testing"
)

type nestedParams struct {
	Inner struct {
		Count int
		Name  string
	}
	Rate  float64
	Seed  uint64
	Grid  []float64
	Tags  []string
	Burst bool
}

func newNested() *nestedParams {
	p := &nestedParams{Rate: 1.5, Seed: 7}
	p.Inner.Count = 3
	p.Grid = []float64{1, 2, 3}
	return p
}

func TestSetParamKindsAndNesting(t *testing.T) {
	p := newNested()
	for _, kv := range [][2]string{
		{"rate", "2.25"},
		{"seed", "99"},
		{"burst", "true"},
		{"grid", "4, 5,6.5"},
		{"tags", "a,b"},
		{"inner.count", "11"},
		{"Inner.Name", "x"},
	} {
		if err := SetParam(p, kv[0], kv[1]); err != nil {
			t.Fatalf("SetParam(%s=%s): %v", kv[0], kv[1], err)
		}
	}
	if p.Rate != 2.25 || p.Seed != 99 || !p.Burst || p.Inner.Count != 11 || p.Inner.Name != "x" {
		t.Errorf("params not applied: %+v", p)
	}
	if len(p.Grid) != 3 || p.Grid[2] != 6.5 {
		t.Errorf("float slice = %v", p.Grid)
	}
	if len(p.Tags) != 2 || p.Tags[1] != "b" {
		t.Errorf("string slice = %v", p.Tags)
	}
}

func TestSetParamErrors(t *testing.T) {
	p := newNested()
	if err := SetParam(p, "nosuch", "1"); err == nil {
		t.Error("unknown key accepted")
	}
	if err := SetParam(p, "rate", "abc"); err == nil {
		t.Error("bad float accepted")
	}
	if err := SetParam(p, "inner.count.x", "1"); err == nil {
		t.Error("over-deep key accepted")
	}
	if err := SetParam(nestedParams{}, "rate", "1"); err == nil {
		t.Error("non-pointer params accepted")
	}
}

func TestHasParam(t *testing.T) {
	p := newNested()
	if !HasParam(p, "seed") || !HasParam(p, "inner.count") {
		t.Error("HasParam missed existing fields")
	}
	if HasParam(p, "missing") {
		t.Error("HasParam invented a field")
	}
}

func TestParamFieldsFlattensNested(t *testing.T) {
	fields := ParamFields(newNested())
	keys := map[string]string{}
	for _, f := range fields {
		keys[f.Key] = f.Default
	}
	if keys["inner.count"] != "3" {
		t.Errorf("nested default = %q, fields: %+v", keys["inner.count"], fields)
	}
	if keys["grid"] != "1,2,3" {
		t.Errorf("slice default = %q", keys["grid"])
	}
}

func TestExpandGrid(t *testing.T) {
	axes := []GridAxis{
		{Key: "a", Values: []string{"1", "2"}},
		{Key: "b", Values: []string{"x", "y", "z"}},
	}
	points := ExpandGrid(axes)
	if len(points) != 6 {
		t.Fatalf("%d points, want 6", len(points))
	}
	if points[0].Label() != "a=1 b=x" || points[5].Label() != "a=2 b=z" {
		t.Errorf("grid order wrong: %q ... %q", points[0].Label(), points[5].Label())
	}
	if len(ExpandGrid(nil)) != 1 {
		t.Error("no axes should yield one empty point")
	}
}

func TestParseGridAxis(t *testing.T) {
	ax, err := ParseGridAxis("rmax=20, 55,120")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Key != "rmax" || len(ax.Values) != 3 || ax.Values[1] != "55" {
		t.Errorf("axis = %+v", ax)
	}
	for _, bad := range []string{"", "rmax", "rmax=", "=1", "alpha=3,3", "alpha=2, 4,2"} {
		if _, err := ParseGridAxis(bad); err == nil {
			t.Errorf("bad axis %q accepted", bad)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	for _, bad := range []Scenario{
		{},
		{Name: "x"},
		{Name: "x", NewParams: func() any { return &struct{}{} }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid scenario %+v registered", bad)
				}
			}()
			Register(bad)
		}()
	}
}

type stubParams struct {
	Seed  uint64
	Gain  float64
	Label string
}

// registerStub registers a scenario under a test-unique name, once per
// process, so the tests pass again under go test -count=N.
func registerStub(t *testing.T, name string) {
	t.Helper()
	if _, ok := Lookup(name); ok {
		return
	}
	Register(Scenario{
		Name:        name,
		Description: "test stub",
		Figures:     "none",
		NewParams:   func() any { return &stubParams{Seed: 1, Gain: 2} },
		Run: func(rc *RunContext) error {
			p := rc.Params.(*stubParams)
			rc.Printf("seed=%d gain=%g label=%s scale=%s\n", p.Seed, p.Gain, p.Label, rc.Scale)
			rc.Metric("gain", p.Gain)
			rc.CSV("data", []string{"a", "b"}, [][]string{{"1", "2"}})
			return nil
		},
	})
}

func TestRunAppliesSeedSetsAndGrid(t *testing.T) {
	registerStub(t, "stub-run")
	results, err := Run(context.Background(), "stub-run", Options{
		Seed:  "42",
		Scale: "smoke",
		Sets:  []string{"label=hello"},
		Grid:  []string{"gain=3,4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	for i, want := range []float64{3, 4} {
		res := results[i]
		if res.Metrics["gain"] != want {
			t.Errorf("variant %d gain = %v, want %v", i, res.Metrics["gain"], want)
		}
		if !strings.Contains(res.Text, "seed=42") || !strings.Contains(res.Text, "label=hello") {
			t.Errorf("variant %d text = %q", i, res.Text)
		}
		if res.Variant == "" {
			t.Error("grid variant label missing")
		}
	}
}

func TestRunRejectsRepeatedGridKeysAndValues(t *testing.T) {
	registerStub(t, "stub-grid-dups")
	for _, grid := range [][]string{
		{"gain=3,3"},           // two variants, one gain_3 file set
		{"gain=2,4", "gain=3"}, // both variants would run at gain 3
		{"gain=2,4", "label=x", "Gain=3"},
	} {
		out := t.TempDir()
		if _, err := Run(context.Background(), "stub-grid-dups", Options{Grid: grid, OutDir: out}); err == nil {
			t.Errorf("grid %q accepted", grid)
		}
		if entries, _ := os.ReadDir(out); len(entries) != 0 {
			t.Errorf("grid %q: rejected run left %d entries in -out", grid, len(entries))
		}
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	if _, err := Run(context.Background(), "no-such-scenario", Options{}); err == nil {
		t.Error("unknown scenario accepted")
	}
	registerStub(t, "stub-errs")
	if _, err := Run(context.Background(), "stub-errs", Options{Sets: []string{"nope=1"}}); err == nil {
		t.Error("unknown -set key accepted")
	}
	if _, err := Run(context.Background(), "stub-errs", Options{Scale: "huge"}); err == nil {
		t.Error("unknown scale accepted")
	}
	if _, err := Run(context.Background(), "stub-errs", Options{Sets: []string{"malformed"}}); err == nil {
		t.Error("malformed -set accepted")
	}
}
