package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// The goldens hold, per workload and seed, the digest of every warm-up
// unit and of the first timed units. defaultSeed is the seed work is
// tuned on; heldOutSeed is kept for re-checking a claimed gain on
// inputs nobody tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

//go:embed goldens/*.json
var goldenFS embed.FS

// golden is one seed's digests.
type golden struct {
	Warmup []string `json:"warmup"`
	Units  []string `json:"units"`
}

type goldenFile struct {
	Seeds map[string]golden `json:"seeds"`
}

// loadGolden returns the embedded digests of workload name under seed;
// a seed without goldens yields an empty golden.
func loadGolden(name string, seed int64) (golden, error) {
	data, err := goldenFS.ReadFile("goldens/" + name + ".json")
	if err != nil {
		return golden{}, err
	}
	var f goldenFile
	if err := json.Unmarshal(data, &f); err != nil {
		return golden{}, fmt.Errorf("goldens of %s: %w", name, err)
	}
	return f.Seeds[strconv.FormatInt(seed, 10)], nil
}

// writeGoldens runs the warm-up units and the first n timed units of w
// under seed, untraced, and stores their digests in the workload's
// golden file under perfbench/goldens (run from the repository root).
// A unit that fails its output checks keeps its digest, so the goldens
// record the program as it is; the failure is printed.
func writeGoldens(w *workloadDef, seed int64, n int) error {
	var g golden
	digest := func(stream, i int) (string, error) {
		d, err := runSafe(w, nil, newUnit(seed, stream, i)).digest()
		if d == "" {
			return "", fmt.Errorf("unit %d (stream %d): %w", i, stream, err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d unit %d (stream %d, unit seed %d) fails its checks: %v\n",
				w.name, seed, i, stream, unitSeed(seed, stream, i), err)
		}
		return d, nil
	}
	for k := 0; k < w.warmup; k++ {
		d, err := digest(warmupStream, k)
		if err != nil {
			return err
		}
		g.Warmup = append(g.Warmup, d)
	}
	for i := 0; i < n; i++ {
		d, err := digest(timedStream, i)
		if err != nil {
			return err
		}
		g.Units = append(g.Units, d)
	}

	path := filepath.Join("perfbench", "goldens", w.name+".json")
	f := goldenFile{Seeds: map[string]golden{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Seeds[strconv.FormatInt(seed, 10)] = g
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
