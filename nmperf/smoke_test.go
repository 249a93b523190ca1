package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryWorkloadEmitsEveryMetric runs each workload tiny, untraced and
// traced, and checks that the result line is correct and carries exactly
// the metrics BENCHMARK.json names, each with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and builds nmserve")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(layerMetrics) != len(spec.PerLayer) {
		t.Errorf("layerMetrics has %d entries, BENCHMARK.json per_layer %d", len(layerMetrics), len(spec.PerLayer))
	}

	nmserve := filepath.Join(t.TempDir(), "nmserve")
	if out, err := exec.Command("go", "build", "-o", nmserve, "nuevomatch/cmd/nmserve").CombinedOutput(); err != nil {
		t.Fatalf("building nmserve: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := runConfig{seed: 7, seconds: 0.5, trace: traced, nmserve: nmserve, work: t.TempDir(), scale: tinyScale}
			out, _, err := runNamed(w.name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(spanPath(cfg, w.name)); err != nil {
					t.Errorf("%s: no spans written: %v", w.name, err)
				}
			}
		}
	}
}
