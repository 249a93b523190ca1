package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classbench"
	"nuevomatch/internal/classifiers/linear"
	"nuevomatch/internal/rules"
)

// The fw1-10k-churn workload: Open on 10k fw1 rules, then one goroutine
// runs a seeded stream of rounds. Each round is one LookupBatch on packets
// drawn from live rules, then one update: rounds alternate between an
// Insert of a fw1 rule that is not live (under a never-used ID) and a
// Delete of a random live rule. Every churnCycle
// rounds the stream calls Retrain, so the remainder fraction climbs from
// the build's ~0.28 and drops back at each retrain.
//
// The rules come from one fixed fw1 universe a quarter larger than the
// table: a fixed random 10k of it are built, the rest wait to be inserted,
// and a deleted rule rejoins the waiting ones with its priority intact. The
// live population is therefore a random 10k-subset of the same universe in
// every cycle, so each cycle measures the same process no matter how many
// cycles a run completes.

const (
	churnCycle = 4000 // rounds between retrains
	// checkEvery: on average one round in checkEvery has its lookup batch
	// compared with a linear mirror of the live rules (seeded choice).
	checkEvery = 64
	// freshIDBase keeps inserted IDs clear of the universe's own.
	freshIDBase = 1 << 30
)

// churnState is the benchmark's own view of the rules: the live ones (the
// source of lookup packets, delete victims and the linear mirror) and the
// waiting ones (the source of inserts).
type churnState struct {
	rng     *rand.Rand
	live    []rules.Rule
	waiting []rules.Rule
	nextID  int
}

// churnUniverse builds the fixed universe and splits it into the table's
// initial rules and the waiting ones. It does not depend on the seed.
func churnUniverse(n int) (base *rules.RuleSet, waiting []rules.Rule) {
	u := classbench.Generate(profile("fw1"), n+n/4)
	inBase := make([]bool, u.Len())
	for _, i := range rand.New(rand.NewSource(1)).Perm(u.Len())[:n] {
		inBase[i] = true
	}
	base = rules.NewRuleSet(u.NumFields)
	for i, r := range u.Rules {
		if inBase[i] {
			base.Add(r)
		} else {
			waiting = append(waiting, r)
		}
	}
	return base, waiting
}

func newChurnState(base *rules.RuleSet, waiting []rules.Rule, seed int64) *churnState {
	return &churnState{
		rng:     rand.New(rand.NewSource(seed)),
		live:    append([]rules.Rule(nil), base.Rules...),
		waiting: append([]rules.Rule(nil), waiting...),
		nextID:  freshIDBase,
	}
}

// take removes and returns a random element of *s.
func (cs *churnState) take(s *[]rules.Rule) rules.Rule {
	i := cs.rng.Intn(len(*s))
	r := (*s)[i]
	last := len(*s) - 1
	(*s)[i] = (*s)[last]
	*s = (*s)[:last]
	return r
}

// fresh returns a random waiting rule under a never-used ID.
func (cs *churnState) fresh() rules.Rule {
	r := cs.take(&cs.waiting)
	r.ID = cs.nextID
	cs.nextID++
	return r
}

// victim picks and removes a random live rule; it rejoins the waiting ones.
func (cs *churnState) victim() rules.Rule {
	r := cs.take(&cs.live)
	cs.waiting = append(cs.waiting, r)
	return r
}

func (cs *churnState) fillPackets(pkts []rules.Packet) {
	for _, p := range pkts {
		classbench.FillMatchingPacket(cs.rng, &cs.live[cs.rng.Intn(len(cs.live))], p)
	}
}

func (cs *churnState) mirror() *linear.Classifier {
	rs := rules.NewRuleSet(rules.NumFiveTupleFields)
	rs.Rules = cs.live
	return linear.New(rs)
}

// churnStream accumulates one stream segment's measurements; each cycle of
// churnCycle rounds is one measurement interval.
type churnStream struct {
	lookupRate, updateRate rates
	wallRate               rates
	lookupLat, wallLat     *windowed
	updateUs               []float64
	retrainS               []float64
	pkts                   int64
	attempted, failed      int64

	// per-cycle accumulators
	cycLookup, cycWall, cycUpdate time.Duration
	cycPkts, cycUpdates           int64

	// traced-run layer figures
	compactions            int
	compactingUs, plainUs  []float64
	retrainTrain           []float64
	retrainSwapUs          []float64
	indexBytes, remFracEnd float64
}

// runChurnStream runs cycles of rounds until d has passed (at least one
// cycle), each cycle ending in a Retrain. With a tracer it also records a
// span per call and classifies each update by whether it compacted the
// overlay.
func runChurnStream(tb *nuevomatch.Table, cs *churnState, d time.Duration, tr *tracer, round *int64) (*churnStream, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	st := &churnStream{lookupLat: newWindowed(churnCycle), wallLat: newWindowed(churnCycle)}
	pkts := make([]rules.Packet, batchSize)
	for i := range pkts {
		pkts[i] = make(rules.Packet, rules.NumFiveTupleFields)
	}
	out := make([]int, batchSize)
	want := make([]int, batchSize)
	deadline := time.Now().Add(d)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		for i := 0; i < churnCycle; i++ {
			id := *round
			*round++
			cs.fillPackets(pkts)
			h := tr.begin("core.LookupBatch", -1, id)
			t0, c0 := time.Now(), threadCPU()
			tb.LookupBatch(pkts, out)
			dt := threadCPU() - c0
			wall := time.Since(t0)
			tr.end(h)
			st.cycLookup += dt
			st.cycWall += wall
			st.cycPkts += batchSize
			st.lookupLat.add(us(dt))
			st.wallLat.add(us(wall))
			st.attempted += batchSize
			if cs.rng.Intn(checkEvery) == 0 {
				lin := cs.mirror()
				for j, p := range pkts {
					want[j] = lin.Lookup(p)
				}
				st.failed += mismatches(out, want)
			}

			// One update per round, alternating insert and delete, so
			// the live count stays at the table's size.
			if id%2 == 0 {
				ins := cs.fresh()
				if err := st.update(tb, "core.Insert", id, tr, func() error { return tb.Insert(ins) }); err == nil {
					cs.live = append(cs.live, ins)
				} else {
					cs.waiting = append(cs.waiting, ins)
				}
			} else {
				del := cs.victim()
				st.update(tb, "core.Delete", id, tr, func() error { return tb.Delete(del.ID) })
			}
		}
		st.endCycle(tb)
		h := tr.begin("core.Retrain", -1, *round)
		t0 := time.Now()
		rst, err := tb.Retrain()
		st.retrainS = append(st.retrainS, time.Since(t0).Seconds())
		tr.end(h)
		st.attempted++
		if err != nil {
			return nil, fmt.Errorf("retrain: %w", err)
		}
		st.retrainTrain = append(st.retrainTrain, rst.TrainTime.Seconds())
		st.retrainSwapUs = append(st.retrainSwapUs, us(rst.SwapTime))
	}
	return st, nil
}

// update times one Insert or Delete; a failed call counts as a failed
// operation.
func (st *churnStream) update(tb *nuevomatch.Table, name string, id int64, tr *tracer, call func() error) error {
	var before int
	if tr != nil {
		before = tb.Updates().OverlayCompactions
	}
	h := tr.begin(name, -1, id)
	c0 := threadCPU()
	err := call()
	dt := threadCPU() - c0
	tr.end(h)
	st.cycUpdate += dt
	st.cycUpdates++
	st.updateUs = append(st.updateUs, us(dt))
	st.attempted++
	if err != nil {
		st.failed++
	}
	if tr != nil {
		if tb.Updates().OverlayCompactions > before {
			st.compactions++
			st.compactingUs = append(st.compactingUs, us(dt))
		} else {
			st.plainUs = append(st.plainUs, us(dt))
		}
	}
	return err
}

// endCycle closes a measurement interval and reads the end-of-churn state
// (the state just before the cycle's Retrain).
func (st *churnStream) endCycle(tb *nuevomatch.Table) {
	st.lookupRate.add(float64(st.cycPkts), st.cycLookup)
	st.wallRate.add(float64(st.cycPkts), st.cycWall)
	st.updateRate.add(float64(st.cycUpdates), st.cycUpdate)
	st.pkts += st.cycPkts
	st.cycLookup, st.cycWall, st.cycUpdate, st.cycPkts, st.cycUpdates = 0, 0, 0, 0, 0
	st.indexBytes = float64(tb.MemoryFootprint())
	st.remFracEnd = tb.Updates().RemainderFraction
}

func runChurn(cfg runConfig) (*report, error) {
	sc := cfg.scale
	rep := newReport()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	base, waiting := churnUniverse(sc.churnRules)
	tb, setupS, err := openMedian(base, sc.churnOpens, tr)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	rep.e2e["setup_s"] = metric{setupS, "s"}
	rep.e2e["heap_bytes"] = metric{heapAfterGC(), "bytes"}

	cs := newChurnState(base, waiting, cfg.seed)
	var round int64
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		// The replay runs on the freshly opened table, on packets from its
		// rules, before any update.
		pk := make([]rules.Packet, 16*batchSize)
		for i := range pk {
			pk[i] = make(rules.Packet, rules.NumFiveTupleFields)
		}
		cs.fillPackets(pk)
		if err := replayLayers(tb, base, pk, tr, rep); err != nil {
			return nil, err
		}
		runtime.GC()
		rc0 := readRuntime()
		plain, err := runChurnStream(tb, cs, d/2, nil, &round)
		if err != nil {
			return nil, err
		}
		readRuntime().since(rc0, plain.pkts, rep)
		traced, err := runChurnStream(tb, cs, d/2, tr, &round)
		if err != nil {
			return nil, err
		}
		rep.attempted += plain.attempted + traced.attempted
		rep.failed += plain.failed + traced.failed
		rep.layer["trace.overhead_frac"] = metric{1 - traced.lookupRate.median()/plain.lookupRate.median(), "ratio"}
		rep.layer["core.compactions"] = metric{float64(traced.compactions), "count"}
		rep.layer["core.compacting_update_us"] = metric{mean(traced.compactingUs), "us"}
		rep.layer["core.plain_update_p50_us"] = metric{median(traced.plainUs), "us"}
		rep.layer["core.remainder_fraction_end"] = metric{traced.remFracEnd, "ratio"}
		rep.layer["core.retrain_train_s"] = metric{median(traced.retrainTrain), "s"}
		rep.layer["core.retrain_swap_us"] = metric{median(traced.retrainSwapUs), "us"}
		return rep, finishTrace(cfg, "fw1-10k-churn", tr, rep)
	}

	runtime.GC()
	st, err := runChurnStream(tb, cs, d, nil, &round)
	if err != nil {
		return nil, err
	}
	rep.attempted += st.attempted
	rep.failed += st.failed
	p50, p99, n := st.lookupLat.result(0.5)
	rep.e2e["throughput_mpps"] = metric{st.lookupRate.median() / 1e6, "Mpps"}
	rep.e2e["latency_p50_us"] = metric{p50, "us"}
	rep.e2e["latency_p99_us"] = metric{p99, "us"}
	rep.e2e["index_bytes"] = metric{st.indexBytes, "bytes"}
	rep.detail["latency_samples"] = metric{float64(n), "count"}
	wallDetail(rep, st.wallRate, st.wallLat)
	rep.detail["update_kops"] = metric{st.updateRate.median() / 1e3, "kops"}
	rep.detail["update_p50_us"] = metric{median(st.updateUs), "us"}
	rep.detail["retrain_s"] = metric{median(st.retrainS), "s"}
	rep.detail["retrains"] = metric{float64(len(st.retrainS)), "count"}
	rep.detail["remainder_fraction_end"] = metric{st.remFracEnd, "ratio"}
	return rep, nil
}

func mean(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}
