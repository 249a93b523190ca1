// Command nmperf is the repository's end-to-end benchmark. It runs one
// workload against the public nuevomatch API (and, for the served workload,
// the real nmserve binary over loopback TCP), checks every answer, and
// prints the metrics as one JSON object on the last line of standard output:
//
//	nmperf -workload fw1-10k-churn -seed 1 -seconds 40 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 the
// run records spans around every call into a layer, replays each layer's
// public functions on the same inputs, and the result carries the per-layer
// metrics instead. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"nuevomatch"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back to main.
type report struct {
	attempted, failed int64
	// e2e holds the gated end-to-end metrics (printed with -trace 0).
	e2e map[string]metric
	// layer holds the per-layer metrics (printed with -trace 1).
	layer map[string]metric
	// detail holds workload-specific end-to-end figures that are not shared
	// by every workload and so cannot be gated (see README.md).
	detail map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, detail: map[string]metric{}}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	nmserve string // path of the nmserve binary (served workload)
	work    string // scratch directory for artifacts and spans
	scale   scale
}

// scale sizes a workload's inputs. fullScale is what the benchmark runs;
// the smoke test uses tinyScale.
type scale struct {
	churnRules               int
	servedRules, servedTrace int
	// Setup repetitions: Open calls, nmserve starts.
	churnOpens, servedStarts int
	openLoopRate             float64 // requests per second
	closedWindow             int     // per-connection pipeline window
}

var fullScale = scale{
	churnRules:  10_000,
	servedRules: 10_000, servedTrace: 65_536,
	churnOpens: 5, servedStarts: 9,
	openLoopRate: 8000, closedWindow: 256,
}

var tinyScale = scale{
	churnRules:  2_000,
	servedRules: 2_000, servedTrace: 4_096,
	churnOpens: 1, servedStarts: 1,
	openLoopRate: 2000, closedWindow: 64,
}

type workload struct {
	name string
	run  func(runConfig) (*report, error)
}

var workloads = []workload{
	{"fw1-10k-churn", runChurn},
	{"acl1-10k-served", runServed},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "seed for traces and update streams")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
		nmserve = flag.String("nmserve", "", "nmserve binary (served workload)")
		work    = flag.String("work", ".bench_build/work", "scratch directory for artifacts and spans")
	)
	flag.Parse()
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1, nmserve: *nmserve, work: *work, scale: fullScale}
	out, correct, err := runNamed(*name, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmperf: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
	// A failed answer is a failed run: the result is printed (so the counts
	// are visible) but the exit status says the program was wrong.
	if !correct {
		os.Exit(1)
	}
}

// runNamed runs one workload and returns the lines to print (the machine
// record, the workload's detail metrics, and the result object last) and
// whether every answer was correct.
func runNamed(name string, cfg runConfig) ([]byte, bool, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i := range workloads {
			names[i] = workloads[i].name
		}
		return nil, false, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if cfg.seconds <= 0 {
		return nil, false, fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, false, err
	}
	mach := machineInfo()
	steal0, total0 := cpuSteal()
	rep, err := w.run(cfg)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", name, err)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		mach.StealFrac = (steal1 - steal0) / (total1 - total0)
	}
	rep.layer["machine.timer_50us_us"] = metric{mach.Timer50us, "us"}

	var buf strings.Builder
	line := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
		return nil
	}
	errFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.detail["error_frac"] = metric{errFrac, "ratio"}
	if err := line(map[string]any{"machine": mach}); err != nil {
		return nil, false, err
	}
	if err := line(map[string]any{"workload": name, "seed": cfg.seed, "trace": cfg.trace, "detail": rep.detail}); err != nil {
		return nil, false, err
	}
	metrics := rep.e2e
	if cfg.trace {
		metrics = rep.layer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, metrics}
	if err := line(res); err != nil {
		return nil, false, err
	}
	return []byte(buf.String()), res.Correct, nil
}

// machine records the box a run was measured on, so served latency can be
// read against the timer floor rather than mistaken for a code change.
type machine struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"rqrmi_kernel"`
	Timer50us  float64 `json:"timer_50us_us"`
	// StealFrac is the share of CPU time the hypervisor took from this
	// machine during the run (0 where /proc/stat has no steal column).
	StealFrac float64 `json:"steal_frac"`
}

// cpuSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat; both are 0 where it cannot be read.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

func machineInfo() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     nuevomatch.KernelName(),
		Timer50us:  timerProbe(200),
	}
}

// timerProbe returns the median time, in µs, a 50µs Go timer takes to fire
// on an otherwise idle process — the floor under nmserve's coalescing
// deadline on this machine.
func timerProbe(n int) float64 {
	s := make([]float64, n)
	for i := range s {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		s[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	sort.Float64s(s)
	return s[n/2]
}

// runDir makes a fresh per-run directory under the scratch directory and
// returns it with its cleanup.
func runDir(cfg runConfig, name string) (string, func(), error) {
	dir, err := os.MkdirTemp(cfg.work, name+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg runConfig, name string) string {
	return filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
}
