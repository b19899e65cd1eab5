package main

// Provenance-facing subcommands: `cs verify` (re-check run directories
// against their manifests) and `cs exp` (declarative experiment grids
// with stamped repeats and manifest-driven analysis).

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"carriersense/internal/exp"
	"carriersense/internal/prov"
)

// cmdVerify is `cs verify DIR...`: each argument is either a run
// directory (containing manifest.json) or a parent tree whose
// manifested run directories are discovered recursively. Any tamper,
// drift, or missing manifest exits nonzero.
func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	quiet := fs.Bool("quiet", false, "report only failures")
	fs.Usage = func() { usage(fs.Output()) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: cs verify RUNDIR...")
	}
	var checked, failed int
	for _, root := range fs.Args() {
		dirs, err := verifyTargets(root)
		if err != nil {
			return err
		}
		for _, dir := range dirs {
			checked++
			m, err := prov.VerifyDir(dir)
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "FAIL %v\n", err)
				continue
			}
			if !*quiet {
				rev := m.VCS.Revision
				if len(rev) > 12 {
					rev = rev[:12]
				}
				if rev == "" {
					rev = "unknown-rev"
				}
				fmt.Printf("ok   %s  (%s, %d artifacts, %s)\n", dir, m.Scenario, len(m.Artifacts), rev)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("cs verify: %d of %d run dirs failed verification", failed, checked)
	}
	if !*quiet {
		fmt.Printf("cs verify: %d run dirs ok\n", checked)
	}
	return nil
}

// verifyTargets resolves one CLI argument to run directories: itself
// when it holds a manifest, otherwise every manifested directory
// beneath it. A tree with no manifests at all is an error — silence
// would read as "verified".
func verifyTargets(root string) ([]string, error) {
	if _, err := os.Stat(filepath.Join(root, prov.ManifestName)); err == nil {
		return []string{root}, nil
	}
	dirs, err := prov.FindManifests(root)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("cs verify: no %s found under %s", prov.ManifestName, root)
	}
	return dirs, nil
}

// cmdExp dispatches the experiment-pipeline family.
func cmdExp(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cs exp run -grid experiments.json -out DIR [run flags]\n       cs exp analyze DIR")
	}
	switch args[0] {
	case "run":
		return cmdExpRun(args[1:])
	case "analyze":
		return cmdExpAnalyze(args[1:])
	default:
		return fmt.Errorf("unknown exp command %q (want run or analyze)", args[0])
	}
}

// cmdExpRun executes a declarative grid through the same executor
// seams as `cs run` — fleet, cache, fault, and trace flags all apply;
// the grid supplies the per-experiment identity knobs (scenario,
// repeats, seed, scale, sampler, sets, grid axes).
func cmdExpRun(args []string) error {
	fs := flag.NewFlagSet("exp run", flag.ExitOnError)
	gridPath := fs.String("grid", "experiments.json", "experiments grid file")
	finish := runOptions(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := finish()
	if err != nil {
		return err
	}
	if cfg.opts.OutDir == "" {
		return fmt.Errorf("cs exp run: -out DIR required (runs are only useful as stamped artifacts)")
	}
	g, err := exp.LoadGrid(*gridPath)
	if err != nil {
		return err
	}
	out := cfg.opts.OutDir
	base := cfg.opts
	base.OutDir = "" // exp places each run under out/<experiment>/
	return runAndReport(cfg, func() error {
		dirs, err := exp.RunGrid(context.Background(), g, exp.RunOptions{
			Out:  out,
			Base: base,
			Log:  os.Stderr,
		})
		if err != nil {
			return err
		}
		if cfg.opts.Stdout != nil {
			fmt.Printf("%d stamped runs under %s; next: cs verify %s && cs exp analyze %s\n",
				len(dirs), out, out, out)
		}
		return nil
	})
}

func cmdExpAnalyze(args []string) error {
	fs := flag.NewFlagSet("exp analyze", flag.ExitOnError)
	quiet := fs.Bool("quiet", false, "suppress per-run verification lines")
	fs.Usage = func() { usage(fs.Output()) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cs exp analyze DIR")
	}
	var log io.Writer
	if !*quiet {
		log = os.Stderr
	}
	return exp.Analyze(fs.Arg(0), log)
}
