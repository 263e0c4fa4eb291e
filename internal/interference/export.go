// Snapshot assembly and the export quartet: JSON, CSV, Prometheus
// text format (probe.PrometheusWriter), and Chrome/Perfetto counter
// tracks. The Tracker double-buffers: the engine goroutine publishes a
// complete copy at window boundaries, exports read the last published
// copy under the mutex — a live /metrics scrape never touches live
// attribution state.
package interference

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"secpref/internal/expo"
	"secpref/internal/mem"
)

// CellRow is one exported (aggressor, victim) matrix entry. Evictions
// is indexed by Class (ClassNames order).
type CellRow struct {
	Aggressor int                `json:"aggressor"`
	Victim    int                `json:"victim"`
	Evictions [NumClasses]uint64 `json:"evictions"`
	Inflicted uint64             `json:"inflicted"`
	Pollution uint64             `json:"pollution"`
}

// Total sums the eviction classes.
func (c CellRow) Total() uint64 {
	var n uint64
	for _, v := range c.Evictions {
		n += v
	}
	return n
}

// CoreRow is one core's aggregate shared-domain footprint.
type CoreRow struct {
	Core int `json:"core"`
	// OccLines is the core's resident LLC lines at snapshot time;
	// OccShare normalizes by total LLC capacity.
	OccLines uint64  `json:"occ_lines"`
	OccShare float64 `json:"occ_share"`
	// Evictions caused (as aggressor) and suffered (as victim), and the
	// inflicted/pollution misses suffered as victim.
	EvCaused   uint64 `json:"ev_caused"`
	EvSuffered uint64 `json:"ev_suffered"`
	Inflicted  uint64 `json:"inflicted"`
	Pollution  uint64 `json:"pollution"`
	// Shared-DRAM activity attributed to the core.
	DRAMReads  uint64 `json:"dram_reads"`
	DRAMWrites uint64 `json:"dram_writes"`
	RowHits    uint64 `json:"row_hits"`
	RowMisses  uint64 `json:"row_misses"`
	// Link traffic by provenance class (requests entering the shared
	// domain over this core's link, measured-phase baseline-adjusted).
	Link [NumClasses]uint64 `json:"link"`
}

// WindowRow is one core's cumulative timeline sample at a (barrier-
// quantized) window boundary. Cycle is relative to the measured-phase
// start; consecutive rows of one core difference into rates.
type WindowRow struct {
	Cycle        uint64 `json:"cycle"`
	Core         int    `json:"core"`
	OccLines     uint64 `json:"occ_lines"`
	EvCaused     uint64 `json:"ev_caused"`
	EvSuffered   uint64 `json:"ev_suffered"`
	Inflicted    uint64 `json:"inflicted"`
	Pollution    uint64 `json:"pollution"`
	DRAMReads    uint64 `json:"dram_reads"`
	DRAMWrites   uint64 `json:"dram_writes"`
	RowHits      uint64 `json:"row_hits"`
	RowMisses    uint64 `json:"row_misses"`
	LinkDemand   uint64 `json:"link_demand"`
	LinkPrefetch uint64 `json:"link_prefetch"`
	LinkSUF      uint64 `json:"link_suf"`
	LinkMaint    uint64 `json:"link_maintenance"`
}

// Snapshot is a self-contained copy of the observatory's state, safe to
// export after (or during, via the published buffer) a run.
type Snapshot struct {
	EngineVersion string      `json:"engine_version"`
	Cores         int         `json:"cores"`
	Sets          int         `json:"sets"`
	Ways          int         `json:"ways"`
	Cycle         uint64      `json:"cycle"`
	Cells         []CellRow   `json:"cells"`
	PerCore       []CoreRow   `json:"per_core"`
	Windows       []WindowRow `json:"windows"`
}

// snapshotLocked assembles a Snapshot from live state. Engine goroutine
// only.
func (t *Tracker) snapshot(now mem.Cycle) *Snapshot {
	s := &Snapshot{
		EngineVersion: t.EngineVersion,
		Cores:         t.cores,
		Sets:          t.sets,
		Ways:          t.ways,
		Cycle:         uint64(now),
		Cells:         make([]CellRow, 0, t.cores*t.cores),
		PerCore:       make([]CoreRow, t.cores),
		Windows:       append([]WindowRow(nil), t.windows...),
	}
	for a := 0; a < t.cores; a++ {
		for v := 0; v < t.cores; v++ {
			c := t.cells[a*t.cores+v]
			s.Cells = append(s.Cells, CellRow{
				Aggressor: a, Victim: v,
				Evictions: c.evictions,
				Inflicted: c.inflicted,
				Pollution: c.pollution,
			})
		}
	}
	capacity := float64(t.sets * t.ways)
	for c := 0; c < t.cores; c++ {
		s.PerCore[c] = CoreRow{
			Core:       c,
			OccLines:   t.occTot[c],
			OccShare:   float64(t.occTot[c]) / capacity,
			EvCaused:   t.causedTot[c],
			EvSuffered: t.sufferedTot[c],
			Inflicted:  t.inflVicTot[c],
			Pollution:  t.pollVicTot[c],
			DRAMReads:  t.dram[c].reads,
			DRAMWrites: t.dram[c].writes,
			RowHits:    t.dram[c].rowHits,
			RowMisses:  t.dram[c].rowMisses,
			Link:       t.linkDelta(c),
		}
	}
	return s
}

// publish copies the live state into the mutex-guarded export buffer.
// Engine goroutine only; called at window boundaries and run end.
func (t *Tracker) publish(now mem.Cycle) {
	s := t.snapshot(now)
	t.mu.Lock()
	t.pub = s
	t.mu.Unlock()
}

// Snapshot returns the last published snapshot (nil before the first
// window boundary or Finish). Safe from any goroutine.
func (t *Tracker) Snapshot() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pub
}

// WriteJSON writes the snapshot as one indented JSON document.
func (s *Snapshot) WriteJSON(w io.Writer) error { return expo.WriteJSON(w, s) }

// WriteCSV writes the attribution matrix, one row per (aggressor,
// victim) cell.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"aggressor", "victim"}
	header = append(header, ClassNames[:]...)
	header = append(header, "total", "inflicted", "pollution")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, c := range s.Cells {
		row = row[:0]
		row = append(row, strconv.Itoa(c.Aggressor), strconv.Itoa(c.Victim))
		for _, v := range c.Evictions {
			row = append(row, strconv.FormatUint(v, 10))
		}
		row = append(row,
			strconv.FormatUint(c.Total(), 10),
			strconv.FormatUint(c.Inflicted, 10),
			strconv.FormatUint(c.Pollution, 10))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePrometheus implements probe.PrometheusWriter: the matrix as
// labeled counters, per-core footprint as gauges. Label cardinality is
// cores² for the matrix series — fine at the 4–64 cores this simulator
// runs. Zero matrix and link cells are omitted.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	family := func(name, typ, help string) expo.Family { return expo.Family{Name: name, Help: help, Type: typ} }
	evictions := family("secpref_interference_evictions_total", expo.Counter, "Cross-core LLC evictions by aggressor provenance.")
	inflicted := family("secpref_interference_inflicted_total", expo.Counter, "Victim demand misses on lines the aggressor evicted.")
	pollution := family("secpref_interference_pollution_total", expo.Counter, "Inflicted misses whose evicting fill was a prefetch.")
	for _, c := range s.Cells {
		a, v := strconv.Itoa(c.Aggressor), strconv.Itoa(c.Victim)
		for cl, n := range c.Evictions {
			if n != 0 {
				evictions.Add(float64(n), "aggressor", a, "victim", v, "class", ClassNames[cl])
			}
		}
		if c.Inflicted != 0 {
			inflicted.Add(float64(c.Inflicted), "aggressor", a, "victim", v)
		}
		if c.Pollution != 0 {
			pollution.Add(float64(c.Pollution), "aggressor", a, "victim", v)
		}
	}
	occupancy := family("secpref_interference_occupancy_lines", expo.Gauge, "Per-core resident shared-LLC lines.")
	reads := family("secpref_interference_dram_reads_total", expo.Counter, "Per-core shared-DRAM reads.")
	writes := family("secpref_interference_dram_writes_total", expo.Counter, "Per-core shared-DRAM writes (charged to the causing core).")
	link := family("secpref_interference_link_requests_total", expo.Counter, "Per-core shared-link requests by provenance class.")
	for _, c := range s.PerCore {
		core := strconv.Itoa(c.Core)
		occupancy.Add(float64(c.OccLines), "core", core)
		reads.Add(float64(c.DRAMReads), "core", core)
		writes.Add(float64(c.DRAMWrites), "core", core)
		for cl, n := range c.Link {
			if n != 0 {
				link.Add(float64(n), "core", core, "class", ClassNames[cl])
			}
		}
	}
	fams := []expo.Family{evictions, inflicted, pollution, occupancy, reads, writes, link}
	if s.EngineVersion != "" {
		fams = append(fams, expo.Single("secpref_interference_engine_info", expo.Gauge,
			"Engine generation the snapshot was recorded under.", 1, "version", s.EngineVersion))
	}
	return expo.WritePrometheus(w, fams...)
}

// WritePrometheus implements probe.PrometheusWriter on the Tracker by
// exporting the last published snapshot (nothing before the first
// publish). Safe to hang off a live /metrics handler while a run is in
// flight.
func (t *Tracker) WritePrometheus(w io.Writer) error {
	s := t.Snapshot()
	if s == nil {
		return nil
	}
	return s.WritePrometheus(w)
}

// WriteChromeTrace exports the windowed timeline as per-core Perfetto
// counter tracks (load with ui.perfetto.dev): one named process per
// core, so multicore exports don't collapse into a single track.
func (s *Snapshot) WriteChromeTrace(w io.Writer) error {
	tf := expo.Trace{TraceEvents: make([]expo.Event, 0, len(s.Windows)*5+s.Cores)}
	for c := 0; c < s.Cores; c++ {
		tf.TraceEvents = append(tf.TraceEvents, expo.ProcessName(c+1, fmt.Sprintf("core%d interference", c)))
	}
	for _, row := range s.Windows {
		pid := row.Core + 1
		tf.TraceEvents = append(tf.TraceEvents,
			expo.CounterEvent("llc_occupancy", row.Cycle, pid, 1, map[string]any{"lines": row.OccLines}),
			expo.CounterEvent("evictions", row.Cycle, pid, 1, map[string]any{"caused": row.EvCaused, "suffered": row.EvSuffered}),
			expo.CounterEvent("inflation", row.Cycle, pid, 1, map[string]any{"inflicted": row.Inflicted, "pollution": row.Pollution}),
			expo.CounterEvent("dram", row.Cycle, pid, 1, map[string]any{"reads": row.DRAMReads, "writes": row.DRAMWrites}),
			expo.CounterEvent("link", row.Cycle, pid, 1, map[string]any{
				"demand": row.LinkDemand, "prefetch": row.LinkPrefetch,
				"suf": row.LinkSUF, "maintenance": row.LinkMaint,
			}),
		)
	}
	return tf.Write(w)
}
