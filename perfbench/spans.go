package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Start  time.Duration // since the log's origin
	End    time.Duration
}

// spanLog keeps spans in memory until the run ends. Spans nest by call
// order on the benchmark's own goroutine, the only one that records.
// A nil *spanLog records nothing, so untraced passes pay one nil check.
type spanLog struct {
	origin time.Time
	spans  []span
	open   []int // indexes into spans of the spans not yet ended
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its
// handle for end.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: time.Since(l.origin)})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

// end closes the span begin returned, the innermost one still open.
func (l *spanLog) end(h int) {
	if l == nil || h < 0 {
		return
	}
	l.spans[h].End = time.Since(l.origin)
	l.open = l.open[:len(l.open)-1]
}

// spanTotal is the summed wall and self time of every span of one name.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	MedianS float64 `json:"median_s"`
}

// totals sums spans by name. A span's self time is its duration minus
// the time its direct children cover (children never overlap: one
// goroutine records them in sequence).
func (l *spanLog) totals() []spanTotal {
	child := make(map[int]time.Duration)
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotal{}
	durs := map[string][]float64{}
	var order []string
	for _, s := range l.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		t.Count++
		t.TotalS += d.Seconds()
		t.SelfS += (d - child[s.ID]).Seconds()
		durs[s.Name] = append(durs[s.Name], d.Seconds())
	}
	out := make([]spanTotal, 0, len(order))
	for _, n := range order {
		t := byName[n]
		t.MedianS = median(durs[n])
		out = append(out, *t)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// JSON format, which Perfetto loads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a Perfetto-loadable trace, with the
// run's provenance under otherData.
func (l *spanLog) writeChrome(w io.Writer, prov provenance) error {
	evs := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		OtherData       provenance    `json:"otherData"`
	}{evs, "ms", prov})
}
