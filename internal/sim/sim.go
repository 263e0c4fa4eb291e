package sim

import (
	"errors"
	"fmt"

	"secpref/internal/cache"
	seccore "secpref/internal/core"
	"secpref/internal/cpu"
	"secpref/internal/dram"
	"secpref/internal/energy"
	"secpref/internal/ghostminion"
	"secpref/internal/mem"
	"secpref/internal/observatory"
	"secpref/internal/prefetch"
	"secpref/internal/prefetch/berti"
	"secpref/internal/probe"
	"secpref/internal/stats"
	"secpref/internal/tlb"
	"secpref/internal/trace"
)

// ErrNoProgress reports a wedged simulation (a modeling bug, not a
// workload property); it aborts rather than spinning forever.
var ErrNoProgress = errors.New("sim: no instruction retired for too long")

// Machine is one assembled single-core system. Its embedded engine
// runs the rank table (engine.go) and owns the clock.
type Machine struct {
	engine

	cfg Config
	// pool is the machine-wide request free list; every component
	// allocates and recycles mem.Requests through it.
	pool *mem.RequestPool

	core *cpu.Core
	gm   *ghostminion.GM
	l1d  *cache.Cache
	l2   *cache.Cache
	llc  *cache.Cache
	mem  *dram.DRAM
	tlbs *tlb.Hierarchy
	// link bridges this core's L2 to a shared LLC/DRAM domain in
	// sharded multi-core builds (BuildSharded); nil on single-core
	// machines.
	link *CoreLink

	pf         prefetch.Prefetcher
	bertiPF    *berti.Prefetcher
	shadow     prefetch.Prefetcher
	shadowBert *berti.Prefetcher
	classifier *prefetch.Classifier
	monitor    *seccore.LatenessMonitor
	xlq        *seccore.XLQ
	suf        *seccore.SUF

	// obs receives prefetcher-training events (EvTrain) emitted by the
	// machine itself; the components' own Obs fields are set alongside
	// it by attachObserver. Nil means disabled.
	obs probe.Observer

	// Interval sampling state (armWindows / sampleWindow in probes.go);
	// winObs nil means disabled and the run loop pays one nil check.
	winObs   probe.WindowObserver
	winEvery uint64
	winNext  uint64
	winLast  uint64
	winStart mem.Cycle
	winCore  int // core index stamped onto samples (sharded systems)

	// Digest stream state (observatory.go): digSink receives the
	// rolling per-component state digests every digEvery cycles
	// (digNext is the next boundary, digBuf the reused vector). Nil
	// when unarmed: the run loop pays one nil check.
	digSink  observatory.DigestSink
	digEvery mem.Cycle
	digNext  mem.Cycle
	digBuf   []uint64
}

type l1dLoadPort struct{ c *cache.Cache }

func (p l1dLoadPort) IssueLoad(r *mem.Request) bool { return p.c.Enqueue(r) }

type l1dStorePort struct{ c *cache.Cache }

func (p l1dStorePort) IssueStore(r *mem.Request) bool { return p.c.Enqueue(r) }

// NewMachine assembles a system per cfg, reading instructions from src.
// The source is wrapped so it repeats if shorter than the requested
// instruction count.
func NewMachine(cfg Config, src trace.Source) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// An empty source would silently simulate zero instructions and
	// surface much later as a confusing ErrNoProgress; reject it here.
	src, err := trace.NonEmpty(src)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Slack covers retire-width overshoot at the warmup boundary (the
	// warmup loop can retire a few instructions past its target).
	total := cfg.WarmupInstrs + cfg.MaxInstrs + 64
	src = trace.Repeat(src, total)

	m := &Machine{cfg: cfg, pool: &mem.RequestPool{}}
	m.mem = dram.New(cfg.DRAM)
	m.llc = cache.New(cfg.LLC, m.mem)
	m.l2 = cache.New(cfg.L2, m.llc)
	m.l1d = cache.New(cfg.L1D, m.l2)

	var loadPort cpu.LoadPort = l1dLoadPort{m.l1d}
	if cfg.Secure {
		var filter ghostminion.Filter = ghostminion.FullUpdate{}
		if cfg.SUF {
			m.suf = &seccore.SUF{}
			filter = m.suf
		}
		m.gm = ghostminion.New(cfg.GM, m.l1d, filter)
		loadPort = m.gm
	}
	m.core = cpu.New(cfg.Core, src, loadPort, l1dStorePort{m.l1d})
	if !cfg.DisableTLB {
		m.tlbs = tlb.New(cfg.TLB)
		m.core.TLB = m.tlbs
	}
	m.wirePool()

	if err := m.buildPrefetcher(); err != nil {
		return nil, err
	}
	m.wireCommit()
	m.buildRanks()
	return m, nil
}

// buildRanks lays out the single-core table: core, GM, L1D, L2, LLC,
// DRAM. The whole calendar is rebuilt at the start of every run, so it
// is correct whatever happened in between (warmup boundary, stats
// reset, window arming, bisection steps).
func (m *Machine) buildRanks() {
	m.n = 0
	m.cores = [2]*cpu.Core{}
	m.addThread(m.core, m.gm)
	m.add(m.l1d, profL1D)
	m.add(m.l2, profL2)
	m.add(m.llc, profLLC)
	m.add(m.mem, profDRAM)
	m.reprimeAll()
}

// homeCache returns the cache level the prefetcher lives at.
func (m *Machine) homeCache() *cache.Cache {
	if m.pf != nil && m.pf.Home() == mem.LvlL2 {
		return m.l2
	}
	return m.l1d
}

func (m *Machine) buildPrefetcher() error {
	name := m.cfg.Prefetcher
	if name == "" || name == "none" {
		return nil
	}
	// The issuer routes into the home cache's prefetch queue and
	// notifies the classifier of real issues. On the secure system,
	// commit-time prefetches probe the GM first: a line whose data is
	// already speculatively resident is bound to reach L1D via the
	// commit path, so fetching it again from the hierarchy would only
	// duplicate traffic (the commit engine performs the same lookup).
	issuer := func(line mem.Line, ip mem.Addr, fill mem.Level) bool {
		if m.classifier != nil {
			m.classifier.OnRealIssue(line, m.now)
		}
		if m.gm != nil && m.cfg.Mode != ModeOnAccess && m.gm.Contains(line) {
			return true // satisfied by GM-resident data
		}
		return m.homeCache().Prefetch(line, ip, fill, m.now)
	}
	pf, err := prefetch.New(name, issuer)
	if err != nil {
		return err
	}
	m.pf = pf
	if b, ok := pf.(*berti.Prefetcher); ok {
		m.bertiPF = b
		b.MSHRFree = m.l1d.MSHRFree
	}

	// Timely-secure machinery for non-self-timing prefetchers.
	if m.cfg.Mode == ModeTimelySecure {
		if dt, ok := pf.(prefetch.DistanceTunable); ok {
			threshold := seccore.DefaultLateness
			if name == "bingo" {
				threshold = seccore.BingoLateness
			}
			if m.cfg.LatenessThreshold > 0 {
				threshold = m.cfg.LatenessThreshold
			}
			home := m.homeCache()
			m.monitor = seccore.NewLatenessMonitor(dt, threshold, m.cfg.LatenessInterval, func() (uint64, uint64) {
				return home.Stats.PrefLate, home.Stats.PrefUseful
			})
		}
		if m.bertiPF != nil {
			m.xlq = &seccore.XLQ{}
		}
	}

	if m.cfg.Classify {
		m.classifier = prefetch.NewClassifier()
		shadow, err := prefetch.New(name, m.classifier.ShadowIssue)
		if err != nil {
			return err
		}
		m.shadow = shadow
		m.classifier.AttachShadow(shadow)
		if sb, ok := shadow.(*berti.Prefetcher); ok {
			m.shadowBert = sb
		}
	}

	m.wireTraining()
	return nil
}

// wireTraining attaches the access-stream hooks: on-access training for
// ModeOnAccess, shadow training for the classifier, Berti fill
// observation, and the lateness monitor's miss/phase feed.
func (m *Machine) wireTraining() {
	home := m.homeCache()

	accessEv := func(ai cache.AccessInfo) prefetch.Event {
		return prefetch.Event{
			Line:          ai.Line,
			IP:            ai.IP,
			Hit:           ai.Hit,
			HitPrefetched: ai.HitPrefetched,
			PrefFetchLat:  ai.PrefFetchLat,
			Cycle:         ai.Cycle,
			AccessCycle:   ai.Cycle,
		}
	}

	onAccess := func(ai cache.AccessInfo) {
		ev := accessEv(ai)
		if m.cfg.Mode == ModeOnAccess {
			// On-access training consumes the access before the load
			// commits: speculative provenance. (Shadow training below is
			// measurement-only state and is not audited.)
			if m.obs != nil {
				m.obs.Event(probe.Event{
					Kind: probe.EvTrain, Site: probe.SitePF, Cycle: ai.Cycle,
					Line: ai.Line, IP: ai.IP, Req: ai.Kind, Hit: ai.Hit,
					Spec: true,
				})
			}
			m.pf.Train(ev)
			if m.bertiPF != nil && ai.HitPrefetched {
				// Hit on a prefetched line: the stored latency trains
				// the timely-delta search immediately.
				m.bertiPF.Observe(ai.IP, ai.Line, ai.Cycle, ai.PrefFetchLat)
			}
		}
		if m.shadow != nil {
			m.shadow.Train(ev)
			if m.shadowBert != nil && ai.HitPrefetched {
				m.shadowBert.Observe(ai.IP, ai.Line, ai.Cycle, ai.PrefFetchLat)
			}
		}
		if m.monitor != nil && !ai.Hit {
			m.monitor.OnMiss(ai.IP)
		}
		if m.classifier != nil && !ai.Hit {
			// Classification happens at miss time (the paper's
			// definition is anchored to "the time of a demand cache
			// miss"); whether the on-commit prefetcher triggers the
			// line resolves the commit-late vs missed-opportunity split
			// afterwards.
			m.classifier.OnDemandMiss(ai.Line, ai.Merged, ai.Cycle)
		}
	}

	if m.cfg.Secure {
		home.OnSpecAccess = onAccess
		if home == m.l1d {
			// GM hits never reach L1D, so the on-access trigger stream
			// for L1D prefetchers also includes them (hits trigger
			// issuing but do not insert history).
			m.gm.OnAccess = func(line mem.Line, ip mem.Addr, hit bool, cycle mem.Cycle) {
				if !hit {
					return // the miss trains via the L1D probe instead
				}
				onAccess(cache.AccessInfo{Line: line, IP: ip, Kind: mem.KindLoad, Hit: true, Cycle: cycle})
			}
		}
	} else {
		home.OnAccess = onAccess
	}

	// Berti's fetch-latency observation (on-access mode and shadow).
	if m.cfg.Secure && m.gm != nil {
		m.gm.OnFill = func(line mem.Line, _ mem.Level, lat mem.Cycle, _ mem.Cycle, ip mem.Addr, accessed mem.Cycle) {
			if m.cfg.Mode == ModeOnAccess && m.bertiPF != nil {
				m.bertiPF.Observe(ip, line, accessed, lat)
			}
			if m.shadowBert != nil {
				m.shadowBert.Observe(ip, line, accessed, lat)
			}
		}
	} else {
		home.OnFill = func(fi cache.FillInfo) {
			if fi.Prefetch {
				return
			}
			if m.cfg.Mode == ModeOnAccess && m.bertiPF != nil {
				m.bertiPF.Observe(fi.IP, fi.Line, fi.ReqIssued, fi.Latency)
			}
			if m.shadowBert != nil {
				m.shadowBert.Observe(fi.IP, fi.Line, fi.ReqIssued, fi.Latency)
			}
		}
	}
}

// wireCommit attaches the retirement hook: GhostMinion's commit engine
// (with SUF), on-commit/TSB prefetcher training, and the classifier.
func (m *Machine) wireCommit() {
	m.core.OnCommitLoad = func(ci cpu.CommitInfo) bool {
		if m.gm != nil {
			if !m.gm.CanCommit() {
				return false
			}
			m.gm.Commit(ci.Line, ci.Seq, ci.HitLevel, &m.core.Stats)
		}
		m.core.Stats.CommitHitLevel[ci.HitLevel]++
		if m.pf != nil {
			m.commitTrain(ci)
		}
		return true
	}
}

// commitTrain feeds the prefetcher at retirement for the commit-time
// modes.
func (m *Machine) commitTrain(ci cpu.CommitInfo) {
	if m.cfg.Mode == ModeOnAccess {
		return
	}
	isL2 := m.pf.Home() == mem.LvlL2
	ev := prefetch.Event{
		Line:          ci.Line,
		IP:            ci.IP,
		Hit:           !ci.WasMiss,
		HitPrefetched: ci.HitPrefetched,
		PrefFetchLat:  ci.FetchLat,
		Cycle:         ci.CommitCycle,
		AccessCycle:   ci.AccessCycle,
		FetchLat:      ci.FetchLat,
	}
	emitTrain := func(hit bool) {
		if m.obs != nil {
			m.obs.Event(probe.Event{
				Kind: probe.EvTrain, Site: probe.SitePF, Cycle: ci.CommitCycle,
				Seq: ci.Seq, Line: ci.Line, IP: ci.IP, Req: mem.KindLoad,
				Hit: hit,
			})
		}
	}
	if isL2 {
		// L2 prefetchers only observe the post-L1D stream.
		if ci.HitLevel < mem.LvlL2 {
			return
		}
		ev.Hit = ci.HitLevel == mem.LvlL2
		emitTrain(ev.Hit)
		m.pf.Train(ev)
		return
	}
	emitTrain(ev.Hit)
	m.pf.Train(ev)

	if m.bertiPF == nil {
		return
	}
	trainable := ci.WasMiss || ci.HitPrefetched
	if !trainable {
		return
	}
	switch m.cfg.Mode {
	case ModeOnCommit:
		// Naive on-commit Berti: the observed "latency" is the GM-to-
		// L1D on-commit write latency, and the reference time is the
		// commit — the misleading training of §V-B.
		m.bertiPF.Observe(ci.IP, ci.Line, ci.CommitCycle, m.cfg.GM.Latency)
	case ModeTimelySecure:
		// TSB: the X-LQ carries the access timestamp and the true fetch
		// latency to the GM from the speculative phase to commit.
		m.xlq.Record(ci.LQID, ci.AccessCycle, ci.HitPrefetched, ci.FetchLat)
		if !ci.HitPrefetched {
			m.xlq.SetLatency(ci.LQID, ci.FetchLat)
		}
		access, lat, _, ok := m.xlq.Read(ci.LQID, ci.CommitCycle)
		if ok {
			m.bertiPF.Observe(ci.IP, ci.Line, access, lat)
		}
		m.xlq.Release(ci.LQID)
	}
}

// wirePool shares the machine's request pool with every component.
func (m *Machine) wirePool() {
	m.core.SetPool(m.pool)
	if m.gm != nil {
		m.gm.SetPool(m.pool)
	}
	m.l1d.SetPool(m.pool)
	m.l2.SetPool(m.pool)
	m.llc.SetPool(m.pool)
	m.mem.SetPool(m.pool)
}

// resetStats zeroes every counter block (end of warmup).
func (m *Machine) resetStats() {
	m.core.Stats = stats.CoreStats{}
	m.l1d.Stats = stats.CacheStats{}
	m.l2.Stats = stats.CacheStats{}
	m.llc.Stats = stats.CacheStats{}
	m.mem.Stats = stats.DRAMStats{}
	if m.gm != nil {
		m.gm.Stats = stats.CacheStats{}
	}
	if m.tlbs != nil {
		m.tlbs.Stats = stats.TLBStats{}
	}
	if m.suf != nil {
		*m.suf = seccore.SUF{}
	}
	if m.monitor != nil {
		m.monitor.Rebase()
	}
}

// Run executes the configured simulation to completion. It is
// RunProbed with nothing attached (see probes.go).
func Run(cfg Config, src trace.Source) (*Result, error) {
	return RunProbed(cfg, src, Probes{})
}

// wedgeWindow is how many cycles without a retirement the run loop
// tolerates before declaring the simulation wedged.
const wedgeWindow = 500_000

// WedgeWindow exposes the wedge-detection window to the multicore
// engine, whose per-core progress checks use the same threshold.
const WedgeWindow mem.Cycle = wedgeWindow

// runUntil advances the machine until the core has retired n more
// instructions (or the trace ends), failing on wedge or cycle budget
// exhaustion.
func (m *Machine) runUntil(n uint64, maxCycles mem.Cycle) error {
	m.resetProgress()
	return m.run(span{to: mem.NoEvent, target: m.core.Stats.Instructions + n, budget: maxCycles, wedge: true, m: m})
}

// result assembles the Result snapshot.
func (m *Machine) result(traceName string, cycles mem.Cycle) *Result {
	r := &Result{
		Config:       m.cfg,
		TraceName:    traceName,
		Instructions: m.core.Stats.Instructions,
		Cycles:       uint64(cycles),
		Core:         m.core.Stats,
		L1D:          m.l1d.Stats,
		L2:           m.l2.Stats,
		LLC:          m.llc.Stats,
		DRAM:         m.mem.Stats,
	}
	if m.tlbs != nil {
		r.TLB = m.tlbs.Stats
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	var gmAcc uint64
	if m.gm != nil {
		r.GM = m.gm.Stats
		gmAcc = m.gm.Stats.TotalAccesses()
	}
	r.Energy = energy.Compute(energy.DefaultPerAccess(), gmAcc, &r.L1D, &r.L2, &r.LLC, &r.DRAM)
	if m.classifier != nil {
		r.Class = m.classifier.Class
	}
	if m.monitor != nil {
		r.DistanceAdaptations = m.monitor.Adaptations
		r.PhaseResets = m.monitor.Resets
	}
	if dt, ok := m.pf.(prefetch.DistanceTunable); ok {
		r.FinalDistance = dt.Distance()
	}
	if m.suf != nil {
		r.SUFDrops = m.suf.Drops
		r.SUFTrims = m.suf.TrimmedPropagations
	}
	return r
}
