package sim

import (
	"fmt"
	"time"

	"secpref/internal/cpu"
	"secpref/internal/event"
	"secpref/internal/ghostminion"
	"secpref/internal/mem"
	"secpref/internal/observatory"
)

// The engine kernel. Every topology the simulator builds is an ordered
// table of ranks driven by the same code:
//
//	single-core       core, GM, L1D, L2, LLC, DRAM
//	sharded, private  core, GM, L1D, L2, link injection
//	sharded, shared   drain, LLC, DRAM
//	2-way SMT         core0, GM0, core1, GM1, L1D, L2, LLC, DRAM
//
// A rank's table position is its calendar rank: ties at the same cycle
// process in table order, which is the lockstep tick order, so the
// event-driven engine handles simultaneous wakeups exactly as stepping
// every cycle would. prime schedules the calendar, visit processes one
// cycle event-driven, stepAll processes one cycle lockstep, and run
// loops either of them to a cycle bound or an instruction target.

// component is what a rank drives. Tick processes one cycle. SkipIdle
// integrates k cycles in which the component provably has nothing to
// do, bit-identical to k empty Ticks. NextEvent reports the earliest
// future cycle it has work (mem.NoEvent when idle). WakeCounter
// addresses a counter that moves whenever a peer hands it work; the
// table keeps the address, because the kernel reads every rank's
// counter two or three times per visited cycle and a method call per
// read cost about 5% of a visited cycle's host time
// (BenchmarkComponentEngineVisit).
type component interface {
	Tick(now mem.Cycle)
	SkipIdle(k mem.Cycle)
	NextEvent(now mem.Cycle) mem.Cycle
	WakeCounter() *uint64
}

// noWake is the counter of components no peer ever pokes (the link
// and the shared drain). Nothing writes it.
var noWake uint64

// Attribution indices: a rank's slot in observatory profiles. The
// first six are rankNames; ShardProfileRanks appends the link.
const (
	profCore = iota
	profGM
	profL1D
	profL2
	profLLC
	profDRAM
	profLink
	noProf = -1 // the rank is not attributed (the shared drain)
)

// maxRanks is the largest table: the SMT core's.
const maxRanks = 8

// rank is one table entry.
type rank struct {
	c    component
	prof int // attribution index, or noProf
	// ver, when set, is a GM whose state version also wakes this rank:
	// the core's port-blocked loads retry when the GM's state moves.
	ver *ghostminion.GM
	// reprime reschedules the rank at the start of every run, not only
	// the first: its state can change between runs.
	reprime bool
	// wake is the component's WakeCounter.
	wake *uint64

	// lastWake and lastVer are the wake counter and GM state version
	// seen when the rank was last scheduled. A moved counter means a
	// peer handed the rank work, so it ticks even if not due.
	lastWake uint64
	lastVer  uint64
}

// engine runs one rank table. Machine and SharedDomain embed it, so
// their clock is the kernel's.
type engine struct {
	now   mem.Cycle
	ranks [maxRanks]rank
	n     int
	// cores are the table's cores, at most two (SMT): a run's
	// instruction target and its wedge detector read their retirements.
	cores [2]*cpu.Core
	evq   *event.Queue
	prof  *observatory.Profile

	// noSkip selects the lockstep reference: stepAll every cycle.
	noSkip bool
	primed bool
	// idleToBound makes a run whose bound comes before the next due
	// rank absorb the rest as one idle gap instead of visiting the
	// bound (the shared domain, which only catches up to barriers).
	idleToBound bool

	// Wedge detector: the last cycle an instruction retired and the
	// retired count then.
	lastProgress mem.Cycle
	lastCount    uint64
}

// add appends a rank to the table.
func (e *engine) add(c component, prof int) *rank {
	r := &e.ranks[e.n]
	*r = rank{c: c, prof: prof, wake: c.WakeCounter()}
	e.n++
	return r
}

// addThread appends a hardware thread's ranks: its core, woken also by
// its GM's state version, and the GM when the system is secure.
func (e *engine) addThread(c *cpu.Core, gm *ghostminion.GM) {
	r := e.add(c, profCore)
	for i := range e.cores {
		if e.cores[i] == nil {
			e.cores[i] = c
			break
		}
	}
	if gm != nil {
		r.ver = gm
		e.add(gm, profGM)
	}
}

// reprimeAll marks every rank for rescheduling at every run.
func (e *engine) reprimeAll() {
	for i := 0; i < e.n; i++ {
		e.ranks[i].reprime = true
	}
}

// UseReferenceEngine selects between the calendar-queue event engine
// (false, the default) and the lockstep tick-every-cycle reference
// engine the equivalence machinery compares against.
func (e *engine) UseReferenceEngine(on bool) { e.noSkip = on }

// Now returns the cycle the engine has completed.
func (e *engine) Now() mem.Cycle { return e.now }

// attachProfile arms engine-attribution profiling under the given rank
// vocabulary. Nil leaves the run unprofiled (the hot paths pay one nil
// check per rank slot).
func (e *engine) attachProfile(p *observatory.Profile, names []string) {
	if p == nil {
		return
	}
	p.EnsureRanks(names)
	if p.EngineVersion == "" {
		p.EngineVersion = EngineVersion
	}
	e.prof = p
}

// prime schedules ranks at their own NextEvent and snapshots their wake
// counters: every rank on the first run, then only the reprime ones.
func (e *engine) prime() {
	if e.evq == nil {
		e.evq = event.New(e.n)
	}
	for i := 0; i < e.n; i++ {
		r := &e.ranks[i]
		if e.primed && !r.reprime {
			continue
		}
		e.evq.Schedule(i, r.c.NextEvent(e.now))
		r.lastWake = *r.wake
		if r.ver != nil {
			r.lastVer = r.ver.StateVersion()
		}
	}
	e.primed = true
}

// skip integrates k provably idle cycles on every rank.
func (e *engine) skip(k mem.Cycle) {
	for i := 0; i < e.n; i++ {
		e.ranks[i].c.SkipIdle(k)
	}
	e.now += k
	if e.prof != nil {
		e.prof.Gap(uint64(k))
	}
}

// profiledTick ticks one rank of a profiled run, wall-timing every
// WallSampleEvery-th tick. Unprofiled runs call Tick directly: the
// extra call per tick showed in the kernel's host time.
func (e *engine) profiledTick(r *rank, t mem.Cycle) {
	if r.prof == noProf || !e.prof.WallDue(r.prof) {
		r.c.Tick(t)
		return
	}
	s := time.Now()
	r.c.Tick(t)
	e.prof.WallRecord(r.prof, time.Since(s))
}

// visit moves the engine from e.now to cycle t (t > e.now). The gap
// (e.now, t) is provably idle for every rank — t is the calendar's
// earliest wake, possibly clamped down — so all ranks first SkipIdle
// across it. Cycle t itself is then processed in table order: a rank
// ticks if its schedule is due, if a peer handed it work (wake counter
// moved) or if its version source moved; otherwise it integrates one
// empty cycle at its position via SkipIdle. Running the idle ranks'
// SkipIdle in table order with the ticks keeps every cross-component
// clock read bit-identical to lockstep stepping: a component poked by
// an earlier rank still shows t-1, one poked by a later rank shows t.
func (e *engine) visit(t mem.Cycle) {
	if k := t - e.now - 1; k > 0 {
		e.skip(k)
	}
	e.now = t
	// Held in locals: for all the compiler knows, every component call
	// below may change e, so it would reload the fields at every rank.
	ranks, prof, evq := e.ranks[:e.n], e.prof, e.evq
	var ticked [maxRanks]bool
	for i := range ranks {
		r := &ranks[i]
		due := evq.At(i) <= t
		woke := *r.wake != r.lastWake
		ver := r.ver != nil && r.ver.StateVersion() != r.lastVer
		if due || woke || ver {
			if prof == nil {
				r.c.Tick(t)
			} else {
				e.profiledTick(r, t)
			}
			ticked[i] = true
		} else {
			r.c.SkipIdle(1)
		}
		if prof != nil && r.prof != noProf {
			prof.Visit(r.prof, ticked[i], due, woke, ver)
		}
	}

	// Re-arm: a rank that ticked, or that was poked during this cycle
	// (including pokes from later ranks after its slot passed), gets a
	// fresh schedule. Untouched ranks keep their calendar entry.
	for i := range ranks {
		r := &ranks[i]
		rearm := ticked[i] || *r.wake != r.lastWake ||
			(r.ver != nil && r.ver.StateVersion() != r.lastVer)
		if rearm {
			evq.Schedule(i, r.c.NextEvent(t))
			r.lastWake = *r.wake
			if r.ver != nil {
				r.lastVer = r.ver.StateVersion()
			}
		}
		if prof != nil && r.prof != noProf {
			prof.Rearm(r.prof, rearm)
		}
	}
}

// stepAll is the lockstep reference: cycle t with every rank ticked in
// table order. It shares the table with visit but none of the calendar
// or skip logic, so the reference stays independent of the code it
// checks. Profiles attribute every tick as plain due.
func (e *engine) stepAll(t mem.Cycle) {
	e.now = t
	if e.prof == nil {
		for i := 0; i < e.n; i++ {
			e.ranks[i].c.Tick(t)
		}
		return
	}
	for i := 0; i < e.n; i++ {
		r := &e.ranks[i]
		e.profiledTick(r, t)
		if r.prof != noProf {
			e.prof.Visit(r.prof, true, true, false, false)
		}
	}
}

// retired sums the table's retired instructions.
func (e *engine) retired() uint64 {
	var n uint64
	for _, c := range e.cores {
		if c != nil {
			n += c.Stats.Instructions
		}
	}
	return n
}

// reached reports whether every core has retired target instructions
// (target 0: no target) or run out of trace. A table without cores
// never reaches a target.
func (e *engine) reached(target uint64) bool {
	if e.cores[0] == nil {
		return false
	}
	for _, c := range e.cores {
		if c != nil && !c.Done() && (target == 0 || c.Stats.Instructions < target) {
			return false
		}
	}
	return true
}

// resetProgress restarts the wedge detector at the current cycle.
func (e *engine) resetProgress() {
	e.lastProgress, e.lastCount = e.now, e.retired()
}

// span bounds one run of the kernel loop.
type span struct {
	to     mem.Cycle // the last cycle the run may reach
	target uint64    // stop once reached(target)
	budget mem.Cycle // fail once the clock passes it (0: no budget)
	// wedge fails the run after wedgeWindow cycles without a retirement.
	wedge bool
	// m serves its digest stream and instruction windows (nil: none).
	m *Machine
}

// run advances the engine until the clock reaches s.to or the cores
// reach s.target, failing on wedge or budget exhaustion.
//
// The event engine jumps to the calendar's earliest wake in one visit.
// A fully quiescent table (empty trace tail, every rank idle) yields
// mem.NoEvent; the clamps below turn that into a single bounded jump to
// the wedge (or budget) boundary, where ErrNoProgress or the budget
// error fires on exactly the cycle per-cycle stepping reports it,
// instead of spinning through wedgeWindow dead cycles. Digest
// boundaries are visited exactly so both engines sample the same
// cycles (see armDigests).
func (e *engine) run(s span) error {
	if e.now >= s.to || e.reached(s.target) {
		return nil
	}
	if !e.noSkip {
		e.prime()
	}
	for e.now < s.to && !e.reached(s.target) {
		clamped := false
		if e.noSkip {
			e.stepAll(e.now + 1)
		} else {
			next := e.evq.Next() // > e.now, or mem.NoEvent when quiescent
			if next > s.to {
				if e.idleToBound {
					e.skip(s.to - e.now)
					return nil
				}
				next, clamped = s.to, true
			}
			if limit := e.lastProgress + wedgeWindow + 1; s.wedge && next > limit {
				next, clamped = limit, true
			}
			if limit := s.budget + 1; s.budget > 0 && next > limit {
				next, clamped = limit, true
			}
			if s.m != nil && s.m.digSink != nil && next > s.m.digNext {
				next, clamped = s.m.digNext, true
			}
			e.visit(next)
		}
		if e.prof != nil {
			e.prof.Advance(clamped)
		}
		if m := s.m; m != nil {
			if m.digSink != nil && e.now >= m.digNext {
				m.emitDigests()
			}
			if m.winObs != nil {
				m.checkWindow()
			}
		}
		if s.wedge {
			if n := e.retired(); n != e.lastCount {
				e.lastCount, e.lastProgress = n, e.now
			} else if e.now-e.lastProgress > wedgeWindow {
				return ErrNoProgress
			}
		}
		if s.budget > 0 && e.now > s.budget {
			return fmt.Errorf("sim: cycle budget exhausted (%d cycles, %d instructions)", e.now, e.retired())
		}
	}
	return nil
}
