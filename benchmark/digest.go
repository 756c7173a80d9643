package main

import (
	"embed"
	"fmt"
	"os"
	"path/filepath"
)

// The simulated output of every workload at the default seed is pinned: a
// change that only makes the host faster must leave each one byte-identical.
// offload_verify and farm_stream check the same packets, so they share one.
//
//go:embed testdata/*.golden
var goldens embed.FS

func goldenPath(d *def) string { return "testdata/" + d.golden + ".golden" }

// checkDigest compares the run's simulated output with the pinned one.
// Other seeds have other inputs; they are held to the invariants only.
func (m *measured) checkDigest(seed int64) {
	if seed != defaultSeed {
		return
	}
	m.attempted++
	want, err := goldens.ReadFile(goldenPath(m.d))
	switch {
	case err != nil:
		m.failed++
		m.failures = append(m.failures, fmt.Sprintf("no pinned output: %v (run -update)", err))
	case string(want) != m.sim:
		m.failed++
		m.failures = append(m.failures, fmt.Sprintf("simulated output differs from %s", goldenPath(m.d)))
	}
}

// benchDir finds the benchmark's own directory from the two places the
// program is started from: the repository root and the directory itself.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return "benchmark"
	}
	return "."
}

// updateDigests re-pins every workload's simulated output.
func updateDigests(seed int64) error {
	if seed != defaultSeed {
		return fmt.Errorf("-update pins the default seed %d only", defaultSeed)
	}
	for i := range defs {
		d := &defs[i]
		w, err := d.setup(seed, fullSize, nil, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		out, err := w.rep(nil, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		if out.failed > 0 {
			return fmt.Errorf("%s: refusing to pin a failing run: %v", d.name, out.note)
		}
		path := filepath.Join(benchDir(), goldenPath(d))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(out.sim), 0o666); err != nil {
			return err
		}
		fmt.Printf("pinned %s (%d bytes)\n", path, len(out.sim))
	}
	return nil
}
