package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// live in memory and are written out when the run ends, so recording one
// costs two clock reads and a slice append. A nil *tracer records nothing;
// untraced runs pass nil.
type tracer struct {
	t0      time.Time
	names   []string
	nameIdx map[string]int32
	spans   []span
	dropped int
}

// span is one call: name, start and end (ns since the run began), the span
// that caused it, and the request or round it belongs to.
type span struct {
	name       int32
	parent     int32
	id         int64
	start, end int64
}

// maxSpans bounds a traced run's memory; later spans are counted as dropped.
const maxSpans = 1 << 21

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nameIdx: map[string]int32{}, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its handle; parent is -1 for a root span.
func (t *tracer) begin(name string, parent int32, id int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	ni, ok := t.nameIdx[name]
	if !ok {
		ni = int32(len(t.names))
		t.names = append(t.names, name)
		t.nameIdx[name] = ni
	}
	t.spans = append(t.spans, span{name: ni, parent: parent, id: id, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

// end closes span h.
func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].end = int64(time.Since(t.t0))
}

// add records a span whose start and end the caller already measured.
func (t *tracer) add(name string, parent int32, id int64, start, end time.Time) int32 {
	h := t.begin(name, parent, id)
	if h >= 0 {
		t.spans[h].start = int64(start.Sub(t.t0))
		t.spans[h].end = int64(end.Sub(t.t0))
	}
	return h
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// write dumps the spans as JSON lines: one object per span with its index,
// name, parent index, id and start/end in ns since the run began.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	for i, s := range t.spans {
		fmt.Fprintf(w, "{\"span\":%d,\"name\":%q,\"parent\":%d,\"id\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, t.names[s.name], s.parent, s.id, s.start, s.end)
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
