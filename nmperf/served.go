package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/rules"
	"nuevomatch/internal/serve"
	"nuevomatch/internal/trace"
)

// The acl1-10k-served workload: the benchmark trains and saves acl1-10k,
// starts the real nmserve binary on it with default batch, maxdelay and
// queue, and drives it over loopback TCP in two phases. The open-loop phase
// sends on one connection at a fixed light rate and times each request from
// its scheduled send time; it alone gives latency. The closed-loop phase
// keeps a fixed window in flight on each of two connections; it alone gives
// throughput.

const (
	// lateLimit: a response later than this after its scheduled send, or
	// never received, is a failed request.
	lateLimit = time.Second
	// rateInterval is the closed-loop throughput sampling interval.
	rateInterval = 100 * time.Millisecond
	// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat
	// utime and stime.
	clockTicks = 100
)

// child is one running nmserve process.
type child struct {
	cmd         *exec.Cmd
	data, admin string
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

var httpClient = &http.Client{Timeout: 2 * time.Second}

// startServer execs nmserve on the artifact and returns once /readyz
// answers 200, with the time from exec to ready.
func startServer(bin, artifact string) (*child, float64, error) {
	data, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	admin, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	c := &child{data: data, admin: admin}
	c.cmd = exec.Command(bin, "-load", artifact, "-listen", data, "-admin", admin)
	c.cmd.Stderr = os.Stderr
	// If the benchmark dies, the kernel stops the child too.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting nmserve: %w", err)
	}
	url := "http://" + admin + "/readyz"
	for deadline := t0.Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := httpClient.Get(url)
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return c, time.Since(t0).Seconds(), nil
		}
	}
	c.stop()
	return nil, 0, fmt.Errorf("nmserve not ready after 30s")
}

// stop drains the child with SIGTERM and waits for it to exit, killing it
// if the drain hangs.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		// nmserve answers /readyz before it installs its SIGTERM drain
		// handler, so a child stopped right after start dies of the signal
		// instead of draining; that is still a clean stop.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(15 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return errors.New("nmserve did not drain within 15s; killed")
	}
}

// cpuTicks is the child's user+system CPU time in clock ticks.
func (c *child) cpuTicks() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	// After the command name: state is field 3, utime 14, stime 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return u + st, nil
}

// scrape reads /metrics into a map keyed by series (name plus labels).
func (c *child) scrape() (map[string]float64, error) {
	resp, err := httpClient.Get("http://" + c.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// quiescent scrapes until no request is in flight and every request sent
// so far is answered and counted in a published batch. nmserve bumps its
// batch counters after the flush that delivered the responses, so an
// immediate scrape can read stale batch counts.
func (c *child) quiescent(sent float64) (map[string]float64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := c.scrape()
		if err != nil {
			return nil, err
		}
		if m["nmserve_inflight_requests"] == 0 && m["nmserve_responses_total"] == sent && m["nmserve_batch_fill_sum"] == sent {
			return m, nil
		}
		if time.Now().After(deadline) {
			return m, fmt.Errorf("metrics not quiescent after 5s: inflight %v, responses %v, fill %v, sent %v",
				m["nmserve_inflight_requests"], m["nmserve_responses_total"], m["nmserve_batch_fill_sum"], sent)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// histQuantile interpolates quantile q from the difference of two scrapes
// of nmserve's request-duration histogram, in µs, the way nmserve's own
// snapshot does.
func histQuantile(before, after map[string]float64, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		const pre = `nmserve_request_duration_seconds_bucket{le="`
		if !strings.HasPrefix(k, pre) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(pre):], `"}`), 64)
		if err != nil {
			continue // the +Inf bucket
		}
		bs = append(bs, bucket{le * 1e6, v - before[k]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n // cumulative
	if total == 0 {
		return 0
	}
	target := q * total
	prevCum, lo := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target && b.n > prevCum {
			return lo + (target-prevCum)/(b.n-prevCum)*(b.le-lo)
		}
		prevCum, lo = b.n, b.le
	}
	return bs[len(bs)-1].le
}

// openLoop is the result of the light-load phase.
type openLoop struct {
	lat          *windowed
	late         []float64
	sent, failed int64
	reqSpans     []reqSpan
}

type reqSpan struct {
	seq        int64
	start, end time.Time
}

// runOpenLoop sends pkts round-robin on one connection at rate requests/s
// for d. The sender wakes on a timer and sends every request already due;
// the receiver times each response from its scheduled send time and checks
// it against want.
func runOpenLoop(addr string, pkts []rules.Packet, want []int, rate float64, d time.Duration, traced bool) (*openLoop, error) {
	cl, err := serve.Dial(addr)
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) / rate)
	total := int(d / interval)
	ol := &openLoop{lat: newWindowed(p99Samples), late: make([]float64, 0, total)}
	start := time.Now().Add(5 * time.Millisecond)
	sched := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	var received atomic.Int64
	var bad atomic.Int64
	recvDone := make(chan struct{})
	lats := make([]float64, 0, total)
	var spans []reqSpan
	go func() {
		defer close(recvDone)
		for {
			seq, id, err := cl.Recv()
			if err != nil {
				return // the connection is closed once the phase ends
			}
			now := time.Now()
			i := int(seq)
			l := now.Sub(sched(i))
			lats = append(lats, us(l))
			if traced {
				spans = append(spans, reqSpan{int64(seq), sched(i), now})
			}
			if id != want[i%len(want)] || l > lateLimit {
				bad.Add(1)
			}
			received.Add(1)
		}
	}()

	var sendErr error
	for i := 0; i < total && sendErr == nil; {
		if w := time.Until(sched(i)); w > 0 {
			time.Sleep(w)
		}
		now := time.Now()
		for ; i < total && !sched(i).After(now); i++ {
			ol.late = append(ol.late, us(now.Sub(sched(i))))
			if sendErr = cl.Send(uint32(i), pkts[i%len(pkts)]); sendErr != nil {
				break
			}
		}
		if sendErr == nil {
			sendErr = cl.Flush()
		}
	}
	ol.sent = int64(len(ol.late))
	for wait := time.Now().Add(lateLimit); received.Load() < ol.sent && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	<-recvDone
	for _, l := range lats {
		ol.lat.add(l)
	}
	ol.reqSpans = spans
	ol.failed = bad.Load() + ol.sent - received.Load()
	if sendErr != nil {
		return ol, fmt.Errorf("open loop send: %w", sendErr)
	}
	return ol, nil
}

// closedLoop is the result of the saturation phase.
type closedLoop struct {
	rates        rates
	sent, failed int64
	reqSpans     []reqSpan
}

// runClosedLoop keeps window requests in flight on each of two connections
// for d, checking every response against want; throughput is the median of
// the per-interval response rates. With traced set, every 16th request of
// each connection is kept as a span.
func runClosedLoop(addr string, pkts []rules.Packet, want []int, window int, d time.Duration, traced bool) (*closedLoop, error) {
	const conns = 2
	cls := make([]*serve.Client, conns)
	for i := range cls {
		c, err := serve.Dial(addr)
		if err != nil {
			for _, o := range cls[:i] {
				o.Close()
			}
			return nil, err
		}
		cls[i] = c
	}
	var (
		stop     atomic.Bool
		answered atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		cl       = &closedLoop{}
		errs     []error
	)
	for ci, c := range cls {
		wg.Add(1)
		go func(ci int, c *serve.Client) {
			defer wg.Done()
			defer c.Close()
			var sent, bad int64
			var spans []reqSpan
			sentAt := make([]time.Time, window)
			next, inflight := ci*len(pkts)/conns, 0
			var err error
			for err == nil && (!stop.Load() || inflight > 0) {
				for !stop.Load() && inflight < window {
					idx := next % len(pkts)
					if traced {
						sentAt[next%window] = time.Now()
					}
					if err = c.Send(uint32(next), pkts[idx]); err != nil {
						break
					}
					next++
					inflight++
					sent++
				}
				if err == nil {
					err = c.Flush()
				}
				for err == nil && inflight > 0 {
					var seq uint32
					var id int
					if seq, id, err = c.Recv(); err != nil {
						break
					}
					inflight--
					answered.Add(1)
					if id != want[int(seq)%len(want)] {
						bad++
					}
					if traced && seq%16 == 0 {
						spans = append(spans, reqSpan{int64(seq), sentAt[int(seq)%window], time.Now()})
					}
					if !stop.Load() && inflight < window/2 {
						break
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			cl.sent += sent
			cl.failed += bad + int64(inflight)
			cl.reqSpans = append(cl.reqSpans, spans...)
			if err != nil {
				errs = append(errs, err)
			}
		}(ci, c)
	}
	deadline := time.Now().Add(d)
	last, lastT := answered.Load(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(rateInterval)
		n, t := answered.Load(), time.Now()
		cl.rates.add(float64(n-last), t.Sub(lastT))
		last, lastT = n, t
	}
	stop.Store(true)
	wg.Wait()
	return cl, errors.Join(errs...)
}

// engineNsPerReq replays the served packets in-process through LookupBatch
// in chunks of the batch fill nmserve observed.
func engineNsPerReq(tb *nuevomatch.Table, pkts []rules.Packet, fill int) float64 {
	fill = max(fill, 1)
	out := make([]int, fill)
	var per []float64
	for pass := 0; pass < 9; pass++ {
		t0 := time.Now()
		for off := 0; off < len(pkts); off += fill {
			end := min(off+fill, len(pkts))
			tb.LookupBatch(pkts[off:end], out[:end-off])
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(pkts)))
	}
	return median(per)
}

func runServed(cfg runConfig) (*report, error) {
	sc := cfg.scale
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if cfg.nmserve == "" {
		return nil, errors.New("the served workload needs -nmserve")
	}
	dir, cleanup, err := runDir(cfg, "served")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// The artifact: trained here, loaded by nmserve the way operators boot.
	rs := classbench.Generate(profile("acl1"), sc.servedRules)
	pkts, err := trace.CAIDALike(rand.New(rand.NewSource(cfg.seed)), rs, sc.servedTrace, trace.CAIDAOptions{})
	if err != nil {
		return nil, err
	}
	trained, err := nuevomatch.Open(rs)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	artifact := filepath.Join(dir, "table.nm")
	if err := trained.SaveFile(artifact); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := replayLayers(trained, rs, pkts.Packets[:min(len(pkts.Packets), 16*batchSize)], tr, rep); err != nil {
			return nil, err
		}
	}
	trained.Close()
	trained = nil

	// The direct engine the responses are checked against, itself checked
	// against the linear reference on every trace packet.
	h := tr.begin("core.LoadFile", -1, 0)
	t0 := time.Now()
	tb, err := nuevomatch.LoadFile(artifact)
	rep.layer["core.load_s"] = metric{time.Since(t0).Seconds(), "s"}
	tr.end(h)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	rep.e2e["index_bytes"] = metric{float64(tb.MemoryFootprint()), "bytes"}
	rep.e2e["heap_bytes"] = metric{heapAfterGC(), "bytes"}
	want := make([]int, len(pkts.Packets))
	tb.LookupBatch(pkts.Packets, want)
	rep.failed += mismatches(want, linearAnswers(rs, pkts.Packets))
	rep.attempted += int64(len(want))

	// Setup: exec until /readyz, median of several starts; the last one
	// serves the phases.
	var srv *child
	starts := make([]float64, 0, sc.servedStarts)
	for i := 0; i < sc.servedStarts; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		h := tr.begin("serve.start", -1, int64(i))
		c, s, err := startServer(cfg.nmserve, artifact)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		srv, starts = c, append(starts, s)
	}
	defer srv.stop()
	rep.e2e["setup_s"] = metric{median(starts), "s"}

	d := time.Duration(cfg.seconds * float64(time.Second))
	m0, err := srv.quiescent(0)
	if err != nil {
		return nil, err
	}
	h = tr.begin("phase.open_loop", -1, 0)
	ol, err := runOpenLoop(srv.data, pkts.Packets, want, sc.openLoopRate, d/2, cfg.trace)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	for _, s := range ol.reqSpans {
		tr.add("serve.request", h, s.seq, s.start, s.end)
	}
	rep.attempted += ol.sent
	rep.failed += ol.failed
	sent := float64(ol.sent)
	m1, err := srv.quiescent(sent)
	if err != nil {
		return nil, err
	}
	// The lower decile over 1000-request windows: a burst of host
	// contention lifts the percentiles of the windows it lands in, and on
	// the host this was tuned on such bursts covered up to 3 in 4 of a
	// run's windows.
	p50, p99, n := ol.lat.result(0.10)
	rep.e2e["latency_p50_us"] = metric{p50, "us"}
	rep.e2e["latency_p99_us"] = metric{p99, "us"}
	rep.detail["latency_samples"] = metric{float64(n), "count"}
	rep.detail["open_loop_rate"] = metric{sc.openLoopRate, "1/s"}
	rep.layer["serve.server_p50_us"] = metric{histQuantile(m0, m1, 0.50), "us"}
	rep.layer["serve.server_p99_us"] = metric{histQuantile(m0, m1, 0.99), "us"}
	rep.layer["serve.open_batch_fill"] = metric{(m1["nmserve_batch_fill_sum"] - m0["nmserve_batch_fill_sum"]) / math.Max(1, m1["nmserve_batches_total"]-m0["nmserve_batches_total"]), "count"}
	rep.layer["loadgen.late_p99_us"] = metric{quantile(ol.late, 0.99), "us"}

	closedD := d / 2
	if cfg.trace {
		closedD = d / 4
	}
	cpu0, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	h = tr.begin("phase.closed_loop", -1, 0)
	cl, err := runClosedLoop(srv.data, pkts.Packets, want, sc.closedWindow, closedD, false)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	rep.attempted += cl.sent
	rep.failed += cl.failed
	sent += float64(cl.sent)
	m2, err := srv.quiescent(sent)
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTicks()
	if err != nil {
		return nil, err
	}
	rep.e2e["throughput_mpps"] = metric{cl.rates.median() / 1e6, "Mpps"}
	batches := m2["nmserve_batches_total"] - m1["nmserve_batches_total"]
	fill := (m2["nmserve_batch_fill_sum"] - m1["nmserve_batch_fill_sum"]) / math.Max(1, batches)
	rep.layer["serve.batches"] = metric{batches, "count"}
	rep.layer["serve.batch_fill"] = metric{fill, "count"}
	rep.layer["serve.cpu_us_per_req"] = metric{(cpu1 - cpu0) * 1e6 / clockTicks / math.Max(1, float64(cl.sent)), "us"}
	rep.detail["closed_loop_window"] = metric{float64(sc.closedWindow), "count"}

	if cfg.trace {
		h = tr.begin("phase.closed_loop_traced", -1, 0)
		tcl, err := runClosedLoop(srv.data, pkts.Packets, want, sc.closedWindow, closedD, true)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		for _, s := range tcl.reqSpans {
			tr.add("serve.request", h, s.seq, s.start, s.end)
		}
		rep.attempted += tcl.sent
		rep.failed += tcl.failed
		rep.layer["trace.overhead_frac"] = metric{1 - tcl.rates.median()/cl.rates.median(), "ratio"}
		rep.layer["serve.engine_ns_per_req"] = metric{engineNsPerReq(tb, pkts.Packets, int(math.Round(fill))), "ns"}
		return rep, finishTrace(cfg, "acl1-10k-served", tr, rep)
	}
	return rep, nil
}
