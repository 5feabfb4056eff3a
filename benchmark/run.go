package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dgc/internal/heap"
	"dgc/internal/node"
)

// runCfg is the shape of one run. The defaults (see main) follow the
// benchmark contract; the smoke test shrinks everything.
type runCfg struct {
	seed      int64
	segLen    time.Duration // one measured segment
	segs      int           // end-to-end segments (trace 0)
	refSegs   int           // trace 1: untraced reference segments for trace.overhead_pct
	tracedSeg int           // trace 1: traced segments
	warm      time.Duration
	setupReps int // trace 0: set-ups timed; the last one is the measured cluster
	reruns    int // noisy segments replaced per run, at most
	scale     int // workload size divisor (smoke test)
	outDir    string
}

// counters is one reading of everything cumulative.
type counters struct {
	t       time.Time
	cpu     time.Duration
	gcCPU   float64
	host    hostCPU
	obs     map[string]float64
	journal uint64
}

func readCounters(c *cluster) counters {
	return counters{t: time.Now(), cpu: processCPU(), gcCPU: goGCCPU(), host: readHostCPU(),
		obs: c.counters(), journal: c.journalTotal()}
}

// window is a measured interval between two readings.
type window struct {
	a, b  counters
	s     samples // what the generators observed inside the window
	calib float64 // ms, taken just before the window opened
	rerun bool    // replaces a segment the noise guard rejected
	noisy bool    // rejected by the noise guard and not replaced
}

func (w window) seconds() float64         { return w.b.t.Sub(w.a.t).Seconds() }
func (w window) cpuSeconds() float64      { return (w.b.cpu - w.a.cpu).Seconds() }
func (w window) delta(key string) float64 { return w.b.obs[key] - w.a.obs[key] }
func (w window) steal() float64           { return stealPct(w.a.host, w.b.host) }

// pass is one cluster's life: set-up, warm-up, measured segments, drain,
// oracle. The end-to-end pass runs with the runtime's own daemons and no
// recorder; the traced pass drives the daemons itself inside spans.
type pass struct {
	sp     spec
	setups []float64 // seconds
	segs   []window
	peakMB float64 // resident-set peak of the measured cluster: its set-up through its last segment
	flags  []string
	l      *load // its rec is the traced pass's span recorder
	oracle oracleResult
	heap   *heap.Heap // traced: node 0's heap as the last segment closed
	idle   []float64  // traced: no-op With round trips on the idle cluster, us
}

// pooled is the pass's segments laid end to end: one window with their
// summed durations, CPU times, counter deltas and samples. A re-run segment
// lies after the others, so first start to last end is not the measured time.
func (p *pass) pooled() window {
	t0 := p.segs[0].a.t
	w := window{a: counters{t: t0, obs: map[string]float64{}}, b: counters{t: t0, obs: map[string]float64{}}}
	for _, seg := range p.segs {
		w.b.t = w.b.t.Add(seg.b.t.Sub(seg.a.t))
		w.b.cpu += seg.b.cpu - seg.a.cpu
		for k := range seg.b.obs {
			w.b.obs[k] += seg.delta(k)
		}
		w.s.reclaims = append(w.s.reclaims, seg.s.reclaims...)
		w.s.invokes = append(w.s.invokes, seg.s.invokes...)
		w.s.links = append(w.s.links, seg.s.links...)
		w.s.waits = append(w.s.waits, seg.s.waits...)
	}
	return w
}

// whole is the traced pass's window, first segment's start to last one's end
// with every segment's samples: its segments are contiguous (the noise guard
// re-runs none), and spans, journal and gauges are read against real time.
func (p *pass) whole() window {
	w := p.pooled()
	w.a, w.b = p.segs[0].a, p.segs[len(p.segs)-1].b
	return w
}

// live is a running cluster with its generators.
type live struct {
	c       *cluster
	f       *fixture
	l       *load
	quit    chan struct{}
	gens    sync.WaitGroup // ring generator and, traced, the daemon drivers
	clients sync.WaitGroup
}

// bringUp is one set-up: start the cluster, build the fixture, start the
// generators and wait for the closed loops' first turn — every ring slot has
// had its first ring reclaimed and the client its first reply (and first
// tracked argument swept). It returns the seconds that took: the time from
// nothing to a cluster in steady state, which is what setup_s reports.
func bringUp(sp *spec, cfg runCfg, traced bool) (*live, float64, error) {
	start := time.Now()
	c, err := startCluster(sp, clusterOpts{driven: traced})
	if err != nil {
		return nil, 0, err
	}
	f, err := buildFixture(c, cfg.seed)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	lv := &live{c: c, f: f, quit: make(chan struct{})}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	lv.l = newLoad(c, f, rec, cfg.seed)
	lv.gens.Add(1)
	go func() { defer lv.gens.Done(); lv.l.runRings(lv.quit) }()
	lv.clients.Add(1)
	go func() { defer lv.clients.Done(); lv.l.runClient() }()
	if traced {
		for i := range c.rts {
			lv.gens.Add(1)
			go func() { defer lv.gens.Done(); c.drive(i, rec, lv.quit) }()
		}
	}
	for !lv.l.firstTurn() {
		if time.Since(start) > 6*opTimeout {
			lv.halt()
			return nil, 0, fmt.Errorf("set-up: no first reclamation on every slot within %v", 6*opTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return lv, time.Since(start).Seconds(), nil
}

// halt stops the generators and the cluster without draining.
func (lv *live) halt() {
	lv.l.stopping.Store(true)
	lv.clients.Wait()
	close(lv.quit)
	lv.gens.Wait()
	lv.c.stop()
}

func runPass(sp spec, cfg runCfg, traced bool, nsegs, setupReps int) (*pass, error) {
	p := &pass{sp: sp}
	var lv *live
	for rep := 0; rep < setupReps; rep++ {
		if lv != nil {
			lv.halt()
		}
		if rep == setupReps-1 {
			if err := resetPeakRSS(); err != nil {
				p.flags = append(p.flags, "peak_rss_mb covers the whole process, discarded set-up clusters included: "+err.Error())
			}
		}
		var err error
		var took float64
		if lv, took, err = bringUp(&sp, cfg, traced); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, took)
	}
	c := lv.c
	defer c.stop()
	p.l = lv.l

	time.Sleep(cfg.warm)
	for i := 0; i < nsegs; i++ {
		p.segs = append(p.segs, measure(c, p.l, cfg.segLen))
	}
	if !traced {
		p.guardNoise(c, cfg)
	} else {
		p.heap = c.rts[0].CloneHeap()
	}
	p.peakMB = peakRSSMB()

	// Drain: the generators stop making garbage; everything outstanding must
	// be reclaimed and the tables must return to the fixture's counts.
	p.l.stopping.Store(true)
	lv.clients.Wait()
	p.oracle = drainAndCheck(c, lv.f, p.l)
	close(lv.quit)
	lv.gens.Wait()
	if traced {
		for i := 0; i < 1000; i++ {
			start := time.Now()
			_ = c.rts[i%len(c.rts)].With(func(node.Mutator) {})
			p.idle = append(p.idle, float64(time.Since(start))/1e3)
		}
	}
	return p, nil
}

// measure opens a window of length d over the running cluster.
func measure(c *cluster, l *load, d time.Duration) window {
	w := window{calib: calibrate()}
	l.cut()
	w.a = readCounters(c)
	time.Sleep(d)
	w.b = readCounters(c)
	w.s = l.cut()
	return w
}

// guardNoise replaces, once each and at most cfg.reruns per run, segments
// during which the host stole more than 2% of CPU time or the calibration
// loop ran more than 15% off the run's median.
func (p *pass) guardNoise(c *cluster, cfg runCfg) {
	calibs := make([]float64, len(p.segs))
	for i, w := range p.segs {
		calibs[i] = w.calib
	}
	med := median(calibs)
	bad := func(w window) bool {
		return w.steal() > 2 || math.Abs(w.calib/med-1) > 0.15
	}
	left := cfg.reruns
	for i := range p.segs {
		if !bad(p.segs[i]) {
			continue
		}
		p.segs[i].noisy = true
		if left == 0 {
			continue
		}
		left--
		if w := measure(c, p.l, cfg.segLen); !bad(w) {
			w.rerun = true
			p.segs[i] = w
		}
	}
}

// drive issues node i's collector schedule from outside the runtime, one
// span per call, at the intervals the runtime's own tickers would use.
func (c *cluster) drive(i int, rec *recorder, quit <-chan struct{}) {
	rt := c.rts[i]
	lgc := time.NewTicker(time.Duration(c.sp.LGCEvery) * c.sp.Tick)
	snap := time.NewTicker(time.Duration(c.sp.SnapEvery) * c.sp.Tick)
	det := time.NewTicker(time.Duration(c.sp.DetectEvery) * c.sp.Tick)
	defer lgc.Stop()
	defer snap.Stop()
	defer det.Stop()
	for {
		select {
		case <-quit:
			return
		case <-lgc.C:
			sp := rec.begin("lgc.collect", 0, 0)
			rt.RunLGC()
			rec.end(sp)
		case <-snap.C:
			sp := rec.begin("snapshot.summarize", 0, 0)
			_ = rt.Summarize() // an encode failure shows as a missing summary, hence no reclamation
			rec.end(sp)
		case <-det.C:
			sp := rec.begin("core.detect", 0, 0)
			rt.RunDetection()
			rec.end(sp)
		}
	}
}

// runControl is the Table 1 control: the same invoke client against a
// cluster with Config.DisableDGC, for one segment. It returns the invoke
// latencies (us) and the window they were taken in.
func runControl(sp spec, cfg runCfg) ([]float64, float64, error) {
	sp.Slots, sp.Ballast, sp.CrossLinks, sp.TrackEvery = 0, 0, 0, 0
	c, err := startCluster(&sp, clusterOpts{disableDGC: true})
	if err != nil {
		return nil, 0, err
	}
	defer c.stop()
	f, err := buildFixture(c, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	l := newLoad(c, f, nil, cfg.seed)
	done := make(chan struct{})
	go func() { defer close(done); l.runClient() }()
	time.Sleep(cfg.warm / 2)
	l.cut()
	from := time.Now()
	time.Sleep(cfg.segLen)
	invokes, seconds := l.cut().invokes, time.Since(from).Seconds()
	l.stopping.Store(true)
	<-done
	if n := l.failed.Load(); n > 0 {
		return nil, 0, fmt.Errorf("control cluster: %d failed invokes: %v", n, l.failures)
	}
	return invokes, seconds, nil
}

// saturated reports whether the process used more than 75% of the processors
// it may run on over w: beyond that the numbers measure the scheduler.
func saturated(w window) bool {
	return w.cpuSeconds()/w.seconds() > 0.75*float64(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
}
