package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mcsafe/internal/core"
)

// writeBaseline stores a one-program baseline recorded at the given
// settings, with a total far above any real run's.
func writeBaseline(t *testing.T, procs, parallel int) string {
	t.Helper()
	data, err := json.Marshal(jsonReport{GoMaxProcs: procs, Parallelism: parallel, Programs: []jsonProgram{
		{Name: "Sum", Safe: true, ExpectedSafe: true, TotalNs: 60e9},
	}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBaselineSettingsMustMatch: a baseline's times are comparable only
// with a run at its GOMAXPROCS and -parallel. A run at other settings
// is refused with exit 2; at the same settings the gate runs and
// passes.
func TestBaselineSettingsMustMatch(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	only := map[string]bool{"Sum": true}
	for _, c := range []struct {
		name            string
		procs, parallel int
		runParallel     int
		want            int
	}{
		{"other GOMAXPROCS", procs + 1, 0, 0, 2},
		{"other parallelism", procs, 1, 0, 2},
		{"same settings", procs, 1, 1, 0},
	} {
		path := writeBaseline(t, c.procs, c.parallel)
		if got := compareBaseline(path, 2.0, core.Options{Parallelism: c.runParallel}, only, nil); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
