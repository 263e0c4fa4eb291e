package expo

import (
	"encoding/json"
	"io"
)

// Event is one Chrome trace-event entry, the format Perfetto and
// chrome://tracing load. Every exporter maps one simulated cycle to one
// microsecond of Ts, so traces from different exporters line up.
type Event struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ProcessName is the metadata event naming process pid's row.
func ProcessName(pid int, name string) Event {
	return Event{Name: "process_name", Phase: "M", PID: pid, Args: map[string]any{"name": name}}
}

// ThreadName is the metadata event naming lane tid of process pid.
func ThreadName(pid, tid int, name string) Event {
	return Event{Name: "thread_name", Phase: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

// CounterEvent is a counter-track sample: each args entry is one
// series of the named track at cycle ts.
func CounterEvent(name string, ts uint64, pid, tid int, args map[string]any) Event {
	return Event{Name: name, Phase: "C", TS: ts, PID: pid, TID: tid, Args: args}
}

// Complete is a duration span from cycle ts lasting dur cycles; a zero
// duration is widened to one cycle so the span stays visible.
func Complete(name string, ts, dur uint64, pid, tid int, args map[string]any) Event {
	if dur == 0 {
		dur = 1
	}
	return Event{Name: name, Phase: "X", TS: ts, Dur: dur, PID: pid, TID: tid, Args: args}
}

// Instant is a thread-scoped instant event at cycle ts.
func Instant(name string, ts uint64, pid, tid int, args map[string]any) Event {
	return Event{Name: name, Phase: "i", Scope: "t", TS: ts, PID: pid, TID: tid, Args: args}
}

// Trace is a Chrome trace-event JSON document.
type Trace struct {
	TraceEvents     []Event        `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Write encodes the document as one line of JSON. An empty trace
// encodes its events as [] rather than null.
func (t *Trace) Write(w io.Writer) error {
	if t.TraceEvents == nil {
		t.TraceEvents = []Event{}
	}
	return json.NewEncoder(w).Encode(t)
}
