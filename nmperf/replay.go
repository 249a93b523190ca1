package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"nuevomatch"
	"nuevomatch/internal/classifiers/tuplemerge"
	"nuevomatch/internal/iset"
	"nuevomatch/internal/rqrmi"
	"nuevomatch/internal/rules"
)

// The layer replay rebuilds a table's parts through each layer's public
// functions — iset.Build, rqrmi.Train, the TupleMerge builder and Freeze —
// using the same policy as the engine's Open defaults, then times each
// layer's lookup half on the workload's own packets. It is checked against
// the table before any number is reported (see check), so a change to the
// engine's build policy fails the traced run instead of silently splitting
// time for a different structure.

// Engine defaults the replay mirrors: up to 4 iSets, 5% minimum coverage,
// per-iSet training seed 42 + i·7919, TupleMerge remainder.
const (
	replayMaxISets    = 4
	replayMinCoverage = 0.05
	replaySeedBase    = 42
	replaySeedStride  = 7919
)

type replay struct {
	rs     *rules.RuleSet
	fields []int
	models []*rqrmi.Model
	train  []rqrmi.TrainStats
	frozen rules.FrozenClassifier
	remLen int

	partitionS, trainS, remBuildS float64
}

// buildReplay partitions, trains and freezes rs layer by layer, recording a
// span around each call.
func buildReplay(rs *rules.RuleSet, tr *tracer, parent int32) (*replay, error) {
	r := &replay{rs: rs}
	h := tr.begin("iset.Build", parent, 0)
	t0 := time.Now()
	part := iset.Build(rs, iset.Options{MaxISets: replayMaxISets, MinCoverage: replayMinCoverage})
	r.partitionS = time.Since(t0).Seconds()
	tr.end(h)

	for i, is := range part.ISets {
		entries := make([]rqrmi.Entry, len(is.Positions))
		for j, pos := range is.Positions {
			entries[j] = rqrmi.Entry{Range: rs.Rules[pos].Fields[is.Field], Value: pos}
		}
		h := tr.begin("rqrmi.Train", parent, int64(i))
		t0 := time.Now()
		m, ts, err := rqrmi.Train(entries, rqrmi.Config{Seed: replaySeedBase + int64(i)*replaySeedStride})
		r.trainS += time.Since(t0).Seconds()
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("replay: training iSet %d: %w", i, err)
		}
		r.fields = append(r.fields, is.Field)
		r.models = append(r.models, m)
		r.train = append(r.train, *ts)
	}

	h = tr.begin("remainder.build", parent, 0)
	t0 = time.Now()
	rem, err := tuplemerge.Build(rs.Subset(part.Remainder))
	if err != nil {
		return nil, fmt.Errorf("replay: building remainder: %w", err)
	}
	r.frozen = rem.(rules.Freezable).Freeze()
	r.remBuildS = time.Since(t0).Seconds()
	tr.end(h)
	r.remLen = len(part.Remainder)
	return r, nil
}

func (r *replay) maxSearchDistance() int {
	m := 0
	for _, ts := range r.train {
		m = max(m, ts.MaxError)
	}
	return m
}

// check fails unless the replay has the table's structure (iSet sizes and
// fields, search distance, remainder size and backend) and its composed
// answers equal the table's LookupBatch on every packet.
func (r *replay) check(tb *nuevomatch.Table, pkts []rules.Packet) error {
	st := tb.Stats()
	sizes := make([]int, len(r.models))
	for i, m := range r.models {
		sizes[i] = m.Len()
	}
	switch {
	case !slices.Equal(sizes, st.ISetSizes):
		return fmt.Errorf("replay: iSet sizes %v, table has %v", sizes, st.ISetSizes)
	case !slices.Equal(r.fields, st.ISetFields):
		return fmt.Errorf("replay: iSet fields %v, table has %v", r.fields, st.ISetFields)
	case r.maxSearchDistance() != st.MaxSearchDistance:
		return fmt.Errorf("replay: max search distance %d, table has %d", r.maxSearchDistance(), st.MaxSearchDistance)
	case r.remLen != st.RemainderSize:
		return fmt.Errorf("replay: remainder size %d, table has %d", r.remLen, st.RemainderSize)
	case st.RemainderBackend != "tuplemerge":
		return fmt.Errorf("replay: table remainder is %q, replay builds tuplemerge", st.RemainderBackend)
	}
	want := make([]int, len(pkts))
	got := make([]int, len(pkts))
	tb.LookupBatch(pkts, want)
	r.compose(pkts, got)
	for i := range pkts {
		if got[i] != want[i] {
			return fmt.Errorf("replay: packet %d composes to rule %d, table answers %d", i, got[i], want[i])
		}
	}
	return nil
}

// chunkScratch is the per-chunk working set of the composed lookup.
type chunkScratch struct {
	keys   [rqrmi.BatchChunk]uint32
	ents   [rqrmi.BatchChunk]int32
	bounds [rqrmi.BatchChunk]int32
}

// isetStage runs every iSet's batched inference and validation over one
// chunk, leaving each packet's best candidate in out and its priority in
// s.bounds.
func (r *replay) isetStage(block []rules.Packet, s *chunkScratch, out []int) {
	for c := range block {
		out[c], s.bounds[c] = rules.NoMatch, math.MaxInt32
	}
	for i, m := range r.models {
		f := r.fields[i]
		for c, p := range block {
			s.keys[c] = p[f]
		}
		m.LookupEntryBatch(s.keys[:len(block)], s.ents[:len(block)])
		vals := m.Values()
		for c := range block {
			if s.ents[c] < 0 {
				continue
			}
			pos := vals[s.ents[c]]
			if pos < 0 {
				continue
			}
			rule := &r.rs.Rules[pos]
			if rule.Priority < s.bounds[c] && rule.Matches(block[c]) {
				out[c], s.bounds[c] = rule.ID, rule.Priority
			}
		}
	}
}

// compose answers pkts the way the engine composes its layers: iSet
// candidates first, then the frozen remainder under their priorities.
func (r *replay) compose(pkts []rules.Packet, out []int) {
	var s chunkScratch
	for off := 0; off < len(pkts); off += rqrmi.BatchChunk {
		end := min(off+rqrmi.BatchChunk, len(pkts))
		r.isetStage(pkts[off:end], &s, out[off:end])
		r.frozen.LookupBatch(pkts[off:end], s.bounds[:end-off], nil, out[off:end])
	}
}

// layerTimes is the per-packet split of a batch lookup.
type layerTimes struct {
	rqrmiNs, remNs, engineNs, decidedFrac float64
}

// timeLayers times, over passes passes of pkts in 128-packet chunks, the
// RQ-RMI inference alone (Model.LookupEntryBatch per iSet), the frozen
// remainder alone under the per-packet bounds the iSets produce, and the
// whole engine LookupBatch; each figure is the median per-pass ns/packet.
func (r *replay) timeLayers(tb *nuevomatch.Table, pkts []rules.Packet, passes int, tr *tracer, parent int32) layerTimes {
	n := len(pkts)
	nChunks := (n + rqrmi.BatchChunk - 1) / rqrmi.BatchChunk
	isetOut := make([]int, n)
	bounds := make([]int32, n)
	var s chunkScratch
	for ci := 0; ci < nChunks; ci++ {
		off, end := ci*rqrmi.BatchChunk, min((ci+1)*rqrmi.BatchChunk, n)
		r.isetStage(pkts[off:end], &s, isetOut[off:end])
		copy(bounds[off:end], s.bounds[:end-off])
	}
	out := make([]int, n)
	var rq, rem, eng []float64
	for pass := 0; pass < passes; pass++ {
		t0 := time.Now()
		for ci := 0; ci < nChunks; ci++ {
			off, end := ci*rqrmi.BatchChunk, min((ci+1)*rqrmi.BatchChunk, n)
			for i, m := range r.models {
				f := r.fields[i]
				for c, p := range pkts[off:end] {
					s.keys[c] = p[f]
				}
				h := tr.begin("rqrmi.LookupEntryBatch", parent, int64(ci))
				m.LookupEntryBatch(s.keys[:end-off], s.ents[:end-off])
				tr.end(h)
			}
		}
		rq = append(rq, float64(time.Since(t0).Nanoseconds())/float64(n))

		t0 = time.Now()
		for ci := 0; ci < nChunks; ci++ {
			off, end := ci*rqrmi.BatchChunk, min((ci+1)*rqrmi.BatchChunk, n)
			copy(out[off:end], isetOut[off:end])
			copy(s.bounds[:end-off], bounds[off:end])
			h := tr.begin("remainder.LookupBatch", parent, int64(ci))
			r.frozen.LookupBatch(pkts[off:end], s.bounds[:end-off], nil, out[off:end])
			tr.end(h)
		}
		rem = append(rem, float64(time.Since(t0).Nanoseconds())/float64(n))

		t0 = time.Now()
		for ci := 0; ci < nChunks; ci++ {
			off, end := ci*rqrmi.BatchChunk, min((ci+1)*rqrmi.BatchChunk, n)
			h := tr.begin("core.LookupBatch", parent, int64(ci))
			tb.LookupBatch(pkts[off:end], out[off:end])
			tr.end(h)
		}
		eng = append(eng, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	decided := 0
	for i := range out {
		if out[i] != isetOut[i] {
			decided++
		}
	}
	return layerTimes{rqrmiNs: median(rq), remNs: median(rem), engineNs: median(eng), decidedFrac: float64(decided) / float64(n)}
}

// replayLayers builds the replay for tb's rule-set, checks it, times it on
// pkts and writes the iset, rqrmi, remainder and core lookup metrics.
func replayLayers(tb *nuevomatch.Table, rs *rules.RuleSet, pkts []rules.Packet, tr *tracer, rep *report) error {
	h := tr.begin("replay", -1, 0)
	defer tr.end(h)
	r, err := buildReplay(rs, tr, h)
	if err != nil {
		return err
	}
	if err := r.check(tb, pkts); err != nil {
		return err
	}
	lt := r.timeLayers(tb, pkts, 15, tr, h)

	meanSD, total, retrains := 0.0, 0, 0
	for i, ts := range r.train {
		meanSD += ts.MeanError * float64(r.models[i].Len())
		total += r.models[i].Len()
		retrains += ts.LeafRetrains
	}
	if total > 0 {
		meanSD /= float64(total)
	}
	l := rep.layer
	l["iset.partition_s"] = metric{r.partitionS, "s"}
	l["iset.coverage"] = metric{tb.Stats().Coverage, "ratio"}
	l["rqrmi.train_s"] = metric{r.trainS, "s"}
	l["rqrmi.max_search_distance"] = metric{float64(r.maxSearchDistance()), "entries"}
	l["rqrmi.mean_search_distance"] = metric{meanSD, "entries"}
	l["rqrmi.leaf_retrains"] = metric{float64(retrains), "count"}
	l["rqrmi.ns_per_pkt"] = metric{lt.rqrmiNs, "ns"}
	l["rqrmi.bytes"] = metric{float64(tb.RQRMIBytes()), "bytes"}
	l["remainder.rules"] = metric{float64(r.remLen), "count"}
	l["remainder.build_s"] = metric{r.remBuildS, "s"}
	l["remainder.ns_per_pkt"] = metric{lt.remNs, "ns"}
	l["remainder.decided_frac"] = metric{lt.decidedFrac, "ratio"}
	l["remainder.bytes"] = metric{float64(tb.RemainderBytes()), "bytes"}
	l["core.self_ns_per_pkt"] = metric{lt.engineNs - lt.rqrmiNs - lt.remNs, "ns"}
	return nil
}
