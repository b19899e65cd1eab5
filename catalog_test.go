package carriersense_bench

import (
	"os"
	"slices"
	"strings"
	"testing"

	"carriersense/internal/engine"
	_ "carriersense/internal/experiments" // registers the scenarios
)

// TestREADMECatalogMatchesScenarios checks that README's "Scenario
// catalog ↔ paper figures" table has one row per registered scenario:
// no scenario missing, none that `cs list` no longer shows.
func TestREADMECatalogMatchesScenarios(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Scenario catalog ↔ paper figures\n")
	if !ok {
		t.Fatal("README.md has no scenario catalog section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []string
	for _, line := range strings.Split(section, "\n") {
		// A scenario row starts with its name in backticks.
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(rest, "`")
			rows = append(rows, name)
		}
	}
	var registered []string
	for _, sc := range engine.Scenarios() {
		registered = append(registered, sc.Name)
	}
	slices.Sort(rows)
	slices.Sort(registered)
	if !slices.Equal(rows, registered) {
		t.Errorf("README's scenario catalog names\n  %v\nbut the registered scenarios are\n  %v", rows, registered)
	}
}
