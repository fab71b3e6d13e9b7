package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one traced interval. The harness records spans around its
// own calls into each layer; nothing inside the program is instrumented.
// Spans of one op share Op; Parent is the ID of the enclosing span (0
// for an op's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end do nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	// Kept small on purpose: a large live buffer would make the garbage
	// collector run less often in the traced stretch than in the
	// untraced one, and read as negative tracing overhead.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)}
}

func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfStat is the self time of every span of one name: its duration
// minus the part its child spans cover.
type selfStat struct {
	count    int
	totalNs  float64
	medianNs float64
	durs     []float64 // full durations, for the facade.*/service.* medians
}

func (t *tracer) selfTimes() map[string]*selfStat {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	stats := make(map[string]*selfStat)
	selfs := make(map[string][]float64)
	for _, s := range t.spans {
		st := stats[s.Name]
		if st == nil {
			st = &selfStat{}
			stats[s.Name] = st
		}
		dur := float64(s.End - s.Start)
		self := dur - float64(child[s.ID])
		st.count++
		st.totalNs += self
		st.durs = append(st.durs, dur)
		selfs[s.Name] = append(selfs[s.Name], self)
	}
	for name, st := range stats {
		st.medianNs = median(selfs[name])
	}
	return stats
}

// medianDur is the median full duration of the named span in ns, or 0
// when the run recorded none.
func medianDur(stats map[string]*selfStat, name string) float64 {
	st := stats[name]
	if st == nil {
		return 0
	}
	return median(st.durs)
}

func printSelfTimes(w io.Writer, stats map[string]*selfStat) {
	names := make([]string, 0, len(stats))
	var total float64
	for n, st := range stats {
		names = append(names, n)
		total += st.totalNs
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].totalNs > stats[names[j]].totalNs })
	fmt.Fprintf(w, "self time per span name (duration minus children):\n")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "  %-22s n=%-7d total %10.3f ms  median %10.3f us  %5.1f%%\n",
			n, st.count, st.totalNs/1e6, st.medianNs/1e3, 100*ratio(st.totalNs, total))
	}
}
