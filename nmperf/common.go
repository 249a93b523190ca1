package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/linear"
	"nuevomatch/internal/rules"
)

// Helpers shared by the workloads.

// batchSize is the packets per LookupBatch call in churn rounds and in the
// layer replay.
const batchSize = 128

func profile(name string) classbench.Profile {
	p, err := classbench.ProfileByName(name)
	if err != nil {
		panic(err) // the names are constants of this file set
	}
	return p
}

// openMedian opens rs reps times and keeps the last table; setup time is
// the median Open. Training runs on GOMAXPROCS workers, so one Open varies
// by more than a tenth between processes.
func openMedian(rs *rules.RuleSet, reps int, tr *tracer) (*nuevomatch.Table, float64, error) {
	var tb *nuevomatch.Table
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if tb != nil {
			tb.Close()
			tb = nil
			runtime.GC()
		}
		h := tr.begin("core.Open", -1, int64(i))
		t0 := time.Now()
		t, err := nuevomatch.Open(rs)
		times = append(times, time.Since(t0).Seconds())
		tr.end(h)
		if err != nil {
			return nil, 0, fmt.Errorf("open: %w", err)
		}
		tb = t
	}
	return tb, median(times), nil
}

// heapAfterGC is HeapAlloc after a full collection.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// linearAnswers classifies pkts with the linear reference on two
// goroutines.
func linearAnswers(rs *rules.RuleSet, pkts []rules.Packet) []int {
	lin := linear.New(rs)
	want := make([]int, len(pkts))
	var wg sync.WaitGroup
	half := len(pkts) / 2
	for _, part := range [][2]int{{0, half}, {half, len(pkts)}} {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				want[i] = lin.Lookup(pkts[i])
			}
		}(part[0], part[1])
	}
	wg.Wait()
	return want
}

// mismatches counts positions where got differs from want.
func mismatches(got, want []int) int64 {
	n := int64(0)
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}

// runtimeCounters snapshots the collector for per-phase deltas.
type runtimeCounters struct {
	numGC      uint32
	totalAlloc uint64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{ms.NumGC, ms.TotalAlloc}
}

func (rc runtimeCounters) since(prev runtimeCounters, pkts int64, rep *report) {
	rep.layer["runtime.gc_cycles"] = metric{float64(rc.numGC - prev.numGC), "count"}
	rep.layer["runtime.alloc_bytes_per_pkt"] = metric{float64(rc.totalAlloc-prev.totalAlloc) / float64(max(pkts, 1)), "bytes"}
}

// wallDetail puts the wall-clock counterparts of the CPU-clock lookup
// figures into the detail line.
func wallDetail(rep *report, r rates, lat *windowed) {
	p50, p99, _ := lat.result(0.5)
	rep.detail["wall_throughput_mpps"] = metric{r.median() / 1e6, "Mpps"}
	rep.detail["wall_latency_p50_us"] = metric{p50, "us"}
	rep.detail["wall_latency_p99_us"] = metric{p99, "us"}
}

// finishTrace fills the layer metrics a workload does not exercise with 0,
// counts the spans and writes them out.
func finishTrace(cfg runConfig, name string, tr *tracer, rep *report) error {
	rep.layer["trace.spans"] = metric{float64(tr.count()), "count"}
	for _, m := range layerMetrics {
		if _, ok := rep.layer[m.name]; !ok {
			rep.layer[m.name] = metric{0, m.unit}
		}
	}
	return tr.write(spanPath(cfg, name))
}

// layerMetrics is every per-layer metric with its unit. A workload that
// does not exercise a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"iset.partition_s", "s"},
	{"iset.coverage", "ratio"},
	{"rqrmi.train_s", "s"},
	{"rqrmi.max_search_distance", "entries"},
	{"rqrmi.mean_search_distance", "entries"},
	{"rqrmi.leaf_retrains", "count"},
	{"rqrmi.ns_per_pkt", "ns"},
	{"rqrmi.bytes", "bytes"},
	{"remainder.rules", "count"},
	{"remainder.build_s", "s"},
	{"remainder.ns_per_pkt", "ns"},
	{"remainder.decided_frac", "ratio"},
	{"remainder.bytes", "bytes"},
	{"core.self_ns_per_pkt", "ns"},
	{"core.compactions", "count"},
	{"core.compacting_update_us", "us"},
	{"core.plain_update_p50_us", "us"},
	{"core.remainder_fraction_end", "ratio"},
	{"core.retrain_train_s", "s"},
	{"core.retrain_swap_us", "us"},
	{"core.load_s", "s"},
	{"serve.batches", "count"},
	{"serve.batch_fill", "count"},
	{"serve.open_batch_fill", "count"},
	{"serve.server_p50_us", "us"},
	{"serve.server_p99_us", "us"},
	{"serve.cpu_us_per_req", "us"},
	{"serve.engine_ns_per_req", "ns"},
	{"loadgen.late_p99_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_bytes_per_pkt", "bytes"},
	{"machine.timer_50us_us", "us"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "ratio"},
}
