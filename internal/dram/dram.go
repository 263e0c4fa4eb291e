// Package dram models main memory with open-page row buffers and an
// FR-FCFS scheduler, following the paper's Table II: one channel per
// four cores at 6400 MT/s, 4 KB row buffers, and tRP = tRCD = tCAS =
// 12.5 ns each (50 core cycles at 4 GHz).
package dram

import (
	"secpref/internal/mem"
	"secpref/internal/probe"
	"secpref/internal/stats"
)

// Config describes one memory channel.
type Config struct {
	Banks int
	// RowBufKiB is the row-buffer size per bank (page size).
	RowBufKiB int
	// TRP, TRCD, TCAS in core cycles.
	TRP, TRCD, TCAS mem.Cycle
	// BurstCycles is data-bus occupancy per 64 B line (6400 MT/s × 8 B
	// bus ≈ 51.2 GB/s → 1.25 ns/line → 5 core cycles at 4 GHz).
	BurstCycles mem.Cycle
	// RQSize / WQSize bound the controller queues; WriteWatermark is
	// the WQ fill fraction above which writes are drained in preference
	// to reads (Table II: 7/8).
	RQSize, WQSize     int
	WriteWatermarkNum  int
	WriteWatermarkDen  int
	MaxRequestsPerTick int
}

// DefaultConfig returns the Table II channel.
func DefaultConfig() Config {
	return Config{
		Banks:     16,
		RowBufKiB: 4,
		TRP:       50, TRCD: 50, TCAS: 50,
		BurstCycles:        5,
		RQSize:             64,
		WQSize:             64,
		WriteWatermarkNum:  7,
		WriteWatermarkDen:  8,
		MaxRequestsPerTick: 1,
	}
}

type queued struct {
	req     *mem.Request
	arrived mem.Cycle
}

// DRAM is one memory channel implementing cache.Port.
type DRAM struct {
	cfg  Config
	rq   []queued
	wq   []queued
	rows []uint64 // open row per bank (+1; 0 = closed)

	busFreeAt mem.Cycle
	now       mem.Cycle
	resp      []pending
	pool      *mem.RequestPool

	// wake counts externally delivered work (accepted enqueues); see
	// WakeCounter.
	wake uint64

	// Stats is the channel's counter block.
	Stats stats.DRAMStats

	// Obs, if set, observes every scheduled access (Hit reports a
	// row-buffer hit). Observers are read-only; see internal/probe.
	Obs probe.Observer
}

// New builds a channel.
func New(cfg Config) *DRAM {
	return &DRAM{cfg: cfg, rows: make([]uint64, cfg.Banks), pool: &mem.RequestPool{}}
}

// SetPool shares the machine-wide request pool with the channel; the
// channel recycles ownerless traffic (writebacks) that terminates here.
func (d *DRAM) SetPool(p *mem.RequestPool) { d.pool = p }

// Config returns the channel configuration.
func (d *DRAM) Config() Config { return d.cfg }

// bankOf maps a line to a bank; rowOf to a row within the bank.
func (d *DRAM) bankOf(l mem.Line) int {
	linesPerRow := uint64(d.cfg.RowBufKiB * 1024 / mem.LineSize)
	return int((uint64(l) / linesPerRow) % uint64(d.cfg.Banks))
}

func (d *DRAM) rowOf(l mem.Line) uint64 {
	linesPerRow := uint64(d.cfg.RowBufKiB * 1024 / mem.LineSize)
	return uint64(l) / linesPerRow / uint64(d.cfg.Banks)
}

// Enqueue accepts a request; returns false when the queue is full.
func (d *DRAM) Enqueue(r *mem.Request) bool {
	if r.Kind == mem.KindWriteback || r.Kind == mem.KindCommitWrite {
		if len(d.wq) >= d.cfg.WQSize {
			d.Stats.QueueFullRejections++
			return false
		}
		d.wq = append(d.wq, queued{r, d.now})
		d.wake++
		return true
	}
	if len(d.rq) >= d.cfg.RQSize {
		d.Stats.QueueFullRejections++
		return false
	}
	d.rq = append(d.rq, queued{r, d.now})
	d.wake++
	return true
}

// WakeCounter returns the address of a monotonic counter of
// peer-delivered work (accepted Enqueues). A scheduler holding the
// channel asleep past its own NextEvent must re-arm it when the counter
// moves.
func (d *DRAM) WakeCounter() *uint64 { return &d.wake }

// Tick advances the channel one cycle.
func (d *DRAM) Tick(now mem.Cycle) {
	d.now = now
	d.Deliver(now)
	d.Stats.Cycles++
	d.Stats.QueueOccupancy += uint64(len(d.rq) + len(d.wq))
	if d.busFreeAt > now {
		return
	}
	for n := 0; n < d.cfg.MaxRequestsPerTick; n++ {
		if !d.issueOne() {
			return
		}
	}
}

// issueOne schedules the best candidate per FR-FCFS: row-buffer hits
// first, oldest first; writes are drained when the WQ passes the
// watermark or no reads are pending.
func (d *DRAM) issueOne() bool {
	drainWrites := len(d.wq)*d.cfg.WriteWatermarkDen >= d.cfg.WQSize*d.cfg.WriteWatermarkNum ||
		(len(d.rq) == 0 && len(d.wq) > 0)
	var q *[]queued
	if drainWrites {
		q = &d.wq
	} else if len(d.rq) > 0 {
		q = &d.rq
	} else {
		return false
	}
	idx := d.pickFRFCFS(*q)
	entry := (*q)[idx]
	n := len(*q)
	*q = append((*q)[:idx], (*q)[idx+1:]...)
	(*q)[:n][n-1] = queued{} // clear the vacated tail slot

	bank := d.bankOf(entry.req.Line)
	row := d.rowOf(entry.req.Line) + 1
	rowHit := d.rows[bank] == row
	var lat mem.Cycle
	if rowHit {
		lat = d.cfg.TCAS
		d.Stats.RowHits++
	} else if d.rows[bank] == 0 {
		lat = d.cfg.TRCD + d.cfg.TCAS
		d.Stats.RowMisses++
	} else {
		lat = d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS
		d.Stats.RowMisses++
	}
	d.rows[bank] = row
	d.busFreeAt = d.now + d.cfg.BurstCycles

	if d.Obs != nil {
		d.Obs.Event(probe.Event{
			Kind: probe.EvAccess, Site: probe.SiteDRAM, Cycle: d.now,
			Core: entry.req.Core, Seq: entry.req.Timestamp,
			Line: entry.req.Line, IP: entry.req.IP,
			Req: entry.req.Kind, Hit: rowHit, Aux: uint64(lat),
		})
	}

	if drainWrites {
		d.Stats.Writes++
		// Writes complete silently; ownerless ones terminate (and are
		// recycled) here.
		if entry.req.Owner != nil {
			entry.req.Complete()
		} else {
			d.pool.Put(entry.req)
		}
		return true
	}
	d.Stats.Reads++
	d.Stats.LatencySum += uint64((d.now - entry.arrived) + lat + d.cfg.BurstCycles)
	d.Stats.LatCnt++
	r := entry.req
	r.ServedBy = mem.LvlDRAM
	d.schedule(r, d.now+lat+d.cfg.BurstCycles)
	return true
}

// pickFRFCFS returns the index of the best candidate: the oldest
// request that hits an open row buffer, or the oldest overall if none
// does (first-ready, first-come-first-served).
func (d *DRAM) pickFRFCFS(q []queued) int {
	best := -1
	for i, e := range q {
		bank := d.bankOf(e.req.Line)
		if d.rows[bank] == d.rowOf(e.req.Line)+1 {
			if best == -1 || q[i].arrived < q[best].arrived {
				best = i
			}
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for i := range q {
		if q[i].arrived < q[best].arrived {
			best = i
		}
	}
	return best
}

// pending holds in-flight read responses.
type pending struct {
	req   *mem.Request
	ready mem.Cycle
}

// schedule registers a read response for delivery at ready.
func (d *DRAM) schedule(r *mem.Request, ready mem.Cycle) {
	d.resp = append(d.resp, pending{r, ready})
}

// Deliver completes responses whose time has come. The simulator calls
// it once per cycle after Tick.
func (d *DRAM) Deliver(now mem.Cycle) {
	w := 0
	for _, p := range d.resp {
		if p.ready <= now {
			if p.req.Owner != nil {
				p.req.Complete()
			} else {
				d.pool.Put(p.req)
			}
		} else {
			d.resp[w] = p
			w++
		}
	}
	for i := w; i < len(d.resp); i++ {
		d.resp[i] = pending{} // clear vacated slots
	}
	d.resp = d.resp[:w]
}

// NextEvent reports the earliest future cycle at which the channel has
// work: a response becoming ready, or a queued request it can issue
// once the data bus frees. mem.NoEvent means fully idle.
func (d *DRAM) NextEvent(now mem.Cycle) mem.Cycle {
	next := mem.NoEvent
	for _, p := range d.resp {
		if p.ready < next {
			next = p.ready
		}
	}
	if len(d.rq)+len(d.wq) > 0 {
		issue := now + 1
		if d.busFreeAt > issue {
			issue = d.busFreeAt
		}
		if issue < next {
			next = issue
		}
	}
	if next != mem.NoEvent && next <= now {
		next = now + 1
	}
	return next
}

// SkipIdle integrates per-cycle statistics for k cycles during which
// the channel provably does nothing (no response ready, no issuable
// request): identical to calling Tick k times.
func (d *DRAM) SkipIdle(k mem.Cycle) {
	d.now += k // keep arrival stamps exact across the skipped window
	d.Stats.Cycles += uint64(k)
	d.Stats.QueueOccupancy += uint64(len(d.rq)+len(d.wq)) * uint64(k)
}
