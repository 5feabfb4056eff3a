package core_test

import (
	"testing"

	"dgc/internal/core"
	"dgc/internal/ids"
)

// Deliver's per-detection views: the behaviour every node runs, driven here
// without one.

// view builds an algebra with every counter at zero, the counters of the
// hand-built summaries.
func view(sources, targets []ids.RefID) core.Alg {
	a := core.NewAlg()
	for _, r := range sources {
		a.AddSource(r, 0)
	}
	for _, r := range targets {
		a.AddTarget(r, 0)
	}
	return a
}

// TestRepeatedSectionDeduped: a section that adds nothing to the view along
// a scion the detection already arrived by is deduplicated and sends nothing.
func TestRepeatedSectionDeduped(t *testing.T) {
	f := buildFig3(t)
	f.start(f.refF)
	env := f.queue[0]
	f.queue = f.queue[1:]
	if step := f.deliver(env); step.Kind != core.StepEvaluated || len(f.queue) != 1 {
		t.Fatalf("first delivery at P4 = %+v with %d queued, want one forward", step, len(f.queue))
	}
	step := f.deliver(env)
	if step.Kind != core.StepDeduped || len(step.Evals) != 0 || step.Return != nil {
		t.Fatalf("repeated delivery = %+v, want deduplicated", step)
	}
	if len(f.queue) != 1 || f.proc("P4").sent != 1 {
		t.Fatalf("repeated delivery sent: %d queued, P4 sent %d", len(f.queue), f.proc("P4").sent)
	}
}

// TestCounterConflictRaceDrops: a section whose counter disagrees with the
// view is a mutator race. The detection is dropped at this node, and every
// later section of it is dropped too, consistent or not, until a reset.
func TestCounterConflictRaceDrops(t *testing.T) {
	f := buildFig3(t)
	f.start(f.refF)
	env := f.queue[0]
	f.queue = nil
	f.deliver(env)
	f.queue = nil

	racing := core.NewAlg()
	racing.AddSource(f.refF, 1) // the view holds F's scion at counter 0
	step := f.deliver(cdmEnv{det: env.det, along: env.along, alg: racing, hops: env.hops})
	if step.Kind != core.StepRaceDropped || len(step.Evals) != 0 {
		t.Fatalf("conflicting section = %+v, want race-dropped", step)
	}
	grown := env.alg.Clone()
	grown.AddSource(f.refO, 0)
	for _, alg := range []core.Alg{env.alg, grown} {
		if step := f.deliver(cdmEnv{det: env.det, along: env.along, alg: alg, hops: env.hops}); step.Kind != core.StepDropped {
			t.Fatalf("section after the race-drop = %+v, want dropped", step)
		}
	}
	if len(f.queue) != 0 {
		t.Fatalf("a race-dropped detection sent %d CDMs", len(f.queue))
	}
	if v := f.proc("P4").det.Accumulators(); len(v) != 0 {
		t.Fatalf("views after the race-drop = %+v, want none", v)
	}

	f.proc("P4").det.Reset()
	if step := f.deliver(env); step.Kind != core.StepEvaluated || len(f.queue) != 1 {
		t.Fatalf("delivery after a reset = %+v, want evaluated and forwarded", step)
	}
}

// TestPartialReturnOncePerVersion: at P5 of Figure 4 the view already holds
// everything P5's expansion would add, so every evaluation ends on the
// no-new-information cut and the view goes back to the origin — once per
// version of the view, however many scions the detection arrives along.
func TestPartialReturnOncePerVersion(t *testing.T) {
	f := buildFig4(t)
	det := core.DetectionID{Origin: "P2", Seq: 1}
	known := view([]ids.RefID{f.refF, f.refV, f.refY}, []ids.RefID{f.refV, f.refT})
	deliver := func(along ids.RefID, alg core.Alg) core.Step {
		t.Helper()
		step := f.deliver(cdmEnv{det: det, along: along, alg: alg, hops: 2})
		if step.Kind != core.StepEvaluated {
			t.Fatalf("delivery along %s = %+v, want evaluated", along, step)
		}
		for _, ev := range step.Evals {
			if ev.Kind != core.OutcomeBranchEnded || len(ev.Send.Alongs) != 0 {
				t.Fatalf("evaluation along %s = %+v, want a branch end", ev.Along, ev)
			}
		}
		return step
	}

	step := deliver(f.refV, known)
	if step.Return == nil || step.Return.Hops != 3 || !step.Return.Alg.Equal(known) {
		t.Fatalf("first cut returned %+v, want the view at hops 3", step.Return)
	}
	// A new along with nothing new: both alongs are evaluated, and the view
	// is the version already returned.
	step = deliver(f.refY, known)
	if len(step.Evals) != 2 || step.Return != nil {
		t.Fatalf("same view along a second scion = %d evaluations, return %+v; want 2 and none",
			len(step.Evals), step.Return)
	}
	grown := known.Clone()
	grown.AddTarget(f.refY, 0)
	if step = deliver(f.refV, grown); step.Return == nil || !step.Return.Alg.Equal(grown) {
		t.Fatalf("grown view returned %+v, want the grown view", step.Return)
	}
	if f.returns != 2 || len(f.queue) != 2 {
		t.Fatalf("%d returns and %d queued messages, want 2 and 2", f.returns, len(f.queue))
	}
	for _, env := range f.queue {
		if !env.ret || env.to() != "P2" {
			t.Fatalf("queued %+v, want returns to the origin", env)
		}
	}
}

// TestReturnRelaunchesResidueAndClosesSplitCycle: Figure 4's closure split
// across two branches that never meet. The left branch's return lacks the
// origin's own right stub, so the origin relaunches the union; a return that
// adds nothing the origin's expansion could extend relaunches nothing; the
// right branch's fragment closes the union, and the origin declares the
// cycle without evaluating any scion.
func TestReturnRelaunchesResidueAndClosesSplitCycle(t *testing.T) {
	f := buildFig4(t)
	p2 := f.proc("P2")
	det, _ := p2.det.StartDetection(p2.sum, f.refF)
	ret := func(alg core.Alg) core.Step {
		t.Helper()
		f.queue = nil
		return f.deliver(cdmEnv{det: det, alg: alg, hops: 4, ret: true})
	}

	left := view([]ids.RefID{f.refF, f.refV, f.refT, f.refY, f.refD}, []ids.RefID{f.refV, f.refT, f.refD, f.refF})
	step := ret(left)
	out := step.Outcome()
	if step.Kind != core.StepEvaluated || out.Kind != core.OutcomeForwarded || out.Forwarded != 2 {
		t.Fatalf("left return = %+v (%+v), want a relaunch along both of F's stubs", step, out)
	}
	sent := step.Evals[0].Send
	if e, ok := sent.Alg.Get(f.refK); !ok || !e.InTarget || sent.Alg.Len() != left.Len()+1 {
		t.Fatalf("relaunch carries %v, want the union plus the K stub", sent.Alg)
	}
	if step.Return != nil {
		t.Fatal("the origin sent itself a partial return")
	}
	if step = ret(left); step.Kind != core.StepDeduped {
		t.Fatalf("left return again = %+v, want deduplicated", step)
	}

	// K's scion from the right branch: new to the view, nothing new to F's
	// expansion, so nothing is relaunched.
	if step = ret(view([]ids.RefID{f.refK}, nil)); step.Outcome().Kind != core.OutcomeBranchEnded || len(f.queue) != 0 {
		t.Fatalf("return with no residue = %+v and %d queued, want a branch end", step, len(f.queue))
	}

	right := view([]ids.RefID{f.refZB}, []ids.RefID{f.refZB, f.refY})
	step = ret(right)
	if len(step.Evals) != 1 || step.Evals[0].Kind != core.OutcomeCycleFound || step.Evals[0].Along != (ids.RefID{}) {
		t.Fatalf("right return = %+v, want the verdict on the union", step)
	}
	if got := len(step.Evals[0].GarbageScions); got != 7 {
		t.Fatalf("cycle of %d scions, want Figure 4's 7", got)
	}
	if len(f.deleted) != 1 || f.deleted[0] != f.refF {
		t.Fatalf("origin deleted %v, want its own scion %v", f.deleted, f.refF)
	}
}
