package engine

// Manifest emission: every run directory is stamped with a
// provenance manifest (internal/prov) at artifact-write time — after
// the deterministic artifacts and the observability files are on
// disk, so the manifest's digest list covers everything the run
// emitted. The manifest itself is volatile (timings, toolchain, VCS
// revision) and, like metrics.json, is outside the byte-identity
// contract: it describes a single run, and `cs verify` compares a
// directory only against its own manifest.

import (
	"encoding/json"
	"fmt"
	"time"

	"carriersense/internal/cache"
	"carriersense/internal/prov"
)

// writeManifest stamps runDir after every other artifact is written.
func writeManifest(runDir, scenario, scale string, opts Options, results []*Result, sum runSummary, created time.Time) error {
	m := &prov.Manifest{
		Schema:        prov.SchemaVersion,
		Created:       created.UTC(),
		Scenario:      scenario,
		Scale:         scale,
		Seed:          opts.Seed,
		RelErr:        opts.RelErr,
		MaxSamples:    opts.MaxSamples,
		Sets:          opts.Sets,
		Grid:          opts.Grid,
		CacheKeyEpoch: cache.KeyEpoch,
		Exec:          opts.Exec,
		Toolchain:     prov.CurrentToolchain(),
		VCS:           prov.CurrentVCS(),

		ElapsedSeconds:   sum.Elapsed.Seconds(),
		EvaluatedSamples: sum.EvaluatedSamples,
	}
	for _, res := range results {
		m.Sampler = res.Sampler // resolved ("" -> "plain"), same for every variant
		if res.SamplerChoices != nil {
			m.SamplerChoices = res.SamplerChoices // auto runs: the resolved per-kernel winners
		}
		params, err := json.Marshal(res.Params)
		if err != nil {
			return fmt.Errorf("manifest: marshal %s params: %w", scenario, err)
		}
		m.Variants = append(m.Variants, prov.Variant{
			Variant:     res.Variant,
			Params:      params,
			Metrics:     res.Metrics,
			WallSeconds: res.Perf["wall_seconds"],
		})
	}
	return prov.Stamp(runDir, m)
}
