package main

import (
	"fmt"
	"time"

	"dgc/internal/ids"
	"dgc/internal/node"
)

// drainLimit is how long the collector gets, once the load has stopped, to
// reclaim every outstanding garbage unit and return to the fixture's counts.
const drainLimit = 10 * time.Second

// oracleResult is the ground-truth verdict on a pass.
type oracleResult struct {
	// violations are safety failures: something reachable was reclaimed.
	violations []string
	// drainClean: every garbage unit was reclaimed and every node returned to
	// exactly the fixture's object, scion and stub counts within drainLimit.
	drainClean bool
	undrained  int
	residue    []string
	drainMS    float64
}

// drainAndCheck waits for the drain and then checks ground truth: the
// fixture's objects (control rings, ballast, client holder and target) and
// every live cross-node reference's scion must still exist.
func drainAndCheck(c *cluster, f *fixture, l *load) oracleResult {
	var r oracleResult
	start := time.Now()
	for {
		r.undrained = l.outstanding()
		r.residue = nil
		if r.undrained == 0 {
			r.residue = countResidue(c, f)
		}
		if r.undrained == 0 && len(r.residue) == 0 {
			r.drainClean = true
			break
		}
		if time.Since(start) > drainLimit {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.drainMS = float64(time.Since(start)) / 1e6

	for n, rt := range c.rts {
		missing := 0
		if err := rt.With(func(m node.Mutator) {
			for _, o := range f.live[n] {
				if !m.Exists(o) {
					missing++
				}
			}
		}); err != nil {
			r.violations = append(r.violations, fmt.Sprintf("%s: %v", c.names[n], err))
		}
		if missing > 0 {
			r.violations = append(r.violations,
				fmt.Sprintf("%s: %d of %d live objects were reclaimed", c.names[n], missing, len(f.live[n])))
		}
	}
	scions := map[ids.RefID]bool{}
	for n, rt := range c.rts {
		for _, sc := range rt.TableDump().Scions {
			scions[ids.RefID{Src: sc.Src, Dst: ids.GlobalRef{Node: c.names[n], Obj: sc.Obj}}] = true
		}
	}
	for _, ref := range f.cross {
		if !scions[ref] {
			r.violations = append(r.violations, fmt.Sprintf("scion of live reference %s was deleted", ref))
		}
	}
	if !c.membersAlive() {
		r.residue = append(r.residue, "membership: not every member is alive on every node")
		r.drainClean = false
	}
	return r
}

// countResidue compares every node's object, scion and stub counts with the
// fixture's; an empty result means the heaps hold exactly what must be live.
func countResidue(c *cluster, f *fixture) []string {
	var out []string
	for n, rt := range c.rts {
		d := rt.DebugSnapshot()
		if d.Objects != len(f.live[n]) || d.Scions != f.scions[n] || d.Stubs != f.stubs[n] {
			out = append(out, fmt.Sprintf("%s: objects %d (want %d), scions %d (want %d), stubs %d (want %d)",
				c.names[n], d.Objects, len(f.live[n]), d.Scions, f.scions[n], d.Stubs, f.stubs[n]))
		}
	}
	return out
}
