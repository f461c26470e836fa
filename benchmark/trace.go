package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// A span is one timed call made by the benchmark's own code: a client call in
// the traced window, or a call into one layer's exported entry point in the
// ladder. Spans of one operation share Op; Parent is the ID of the span that
// caused this one (0 for the operation's root). IDs are unique within an
// operation. Start and End are ns since the recorder was created.
type span struct {
	Op         uint64
	ID, Parent uint8
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced windows run. One recorder is used by one
// goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(t0 time.Time, capacity int) *recorder {
	return &recorder{t0: t0, spans: make([]span, 0, capacity)}
}

func (r *recorder) add(op uint64, id, parent uint8, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{
		Op: op, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
}

// selfTimes returns, for every span in spans, its duration minus the
// durations of the spans that name it as their parent within the same
// operation. In the traced window children run inside their parent, so this
// is the time the parent spent outside them; in the ladder a child is the
// rung below run on the same operation, so it is the cost the rung adds.
func selfTimes(spans []span) []int64 {
	type key struct {
		op uint64
		id uint8
	}
	children := make(map[key]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[key{s.Op, s.Parent}] += s.dur()
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - children[key{s.Op, s.ID}]
	}
	return self
}

// byName groups values (durations or self times, parallel to spans) by span
// name and sorts each group.
func byName(spans []span, values []int64) map[string][]int64 {
	out := make(map[string][]int64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], values[i])
	}
	for _, vs := range out {
		sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
	}
	return out
}

// writeTrace writes the spans as JSON lines: a header object, then one object
// per span.
func writeTrace(path, workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"spans":%d,"clock":"ns since the run's trace began"}`+"\n", workload, seed, len(spans))
	for _, s := range spans {
		fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start":%d,"end":%d}`+"\n",
			s.Op, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
