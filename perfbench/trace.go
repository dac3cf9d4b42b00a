package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// clockBase anchors every span timestamp. Benchmark-side stamps use its
// monotonic reading; stamps the service reports (JSON wall clock) are
// placed on the same axis by at.
var clockBase = time.Now()

// now is the current position on the span axis, in nanoseconds.
func now() int64 { return int64(time.Since(clockBase)) }

// at places a wall-clock instant (a service JobView stamp) on the span
// axis.
func at(t time.Time) int64 { return int64(t.Sub(clockBase)) }

// span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into the program or from a stamp the program
// reports. Spans of one operation share op; parent indexes the
// enclosing span, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the span name's prefix before the first dot: "floc.seed"
// belongs to floc.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A disabled tracer records nothing, so the untraced run pays only the
// nil checks.
type tracer struct {
	on    bool
	spans []span
}

// add records a finished span and returns its index, or -1 when
// tracing is off.
func (t *tracer) add(name string, op, parent int, start, end int64) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// open records a span whose end is not yet known; close it with end.
func (t *tracer) open(name string, op, parent int) int {
	return t.add(name, op, parent, now(), 0)
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = now()
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover. Overlapping children are counted
// once; a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, curA, curB int64
		for k, v := range iv {
			switch {
			case k == 0:
				curA, curB = v[0], v[1]
			case v[0] > curB:
				covered += curB - curA
				curA, curB = v[0], v[1]
			default:
				curB = max(curB, v[1])
			}
		}
		if len(iv) > 0 {
			covered += curB - curA
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf sums self time per layer, in seconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		out[s.layer()] += float64(self[i]) / 1e9
	}
	return out
}

// writeSpans dumps the spans as JSON lines, for offline inspection.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the write error is the one to report
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}
