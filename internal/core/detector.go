package core

import (
	"cmp"
	"slices"

	"dgc/internal/ids"
)

// DetectionID names one cycle detection: the process that initiated it and a
// per-origin sequence number. Several detections proceed in parallel without
// conflict (§3.1); intermediate processes keep NO state about detections in
// course — a design point the paper contrasts with back-tracing and
// group-merger collectors.
type DetectionID struct {
	Origin ids.NodeID
	Seq    uint64
}

// TraceIDFor derives the causal trace id of a detection: a well-mixed
// 64-bit tag on every journal event about the detection, so one detection
// can be followed across nodes in /debug/dgc snapshots and trace logs. The id
// is a pure function of the DetectionID — FNV-1a over the origin name folded
// with the sequence number, finished with the splitmix64 mixer — so every
// process computes the same id from the detection id that every detection
// message carries, and no message carries the id itself.
func TraceIDFor(det DetectionID) uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(det.Origin); i++ {
		h ^= uint64(det.Origin[i])
		h *= 1099511628211 // FNV-64 prime
	}
	h ^= det.Seq
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// MaxHops is the CDM hop budget: a CDM that has been forwarded this many
// times is not forwarded again. Dropping a CDM is always safe; a detection
// needs at most O(|closure|) strictly-growing hops, so 256 covers any
// realistic cycle while bounding worst-case traffic on adversarial
// topologies.
const MaxHops = 256

// OutcomeKind classifies the result of processing one CDM (or starting a
// detection).
type OutcomeKind int

const (
	// OutcomeDropped: the CDM referenced a scion absent from the current
	// summarized snapshot (safety rules 1/2, §2.2) — silently discarded.
	OutcomeDropped OutcomeKind = iota
	// OutcomeAborted: an invocation-counter mismatch proved a mutator race
	// (safety rule 3) — detection terminated.
	OutcomeAborted
	// OutcomeCycleFound: matching reduced the CDM to {{} -> {}}.
	OutcomeCycleFound
	// OutcomeForwarded: one or more derivations were sent (safety rule 4).
	OutcomeForwarded
	// OutcomeBranchEnded: nothing forwarded — every outgoing stub was
	// locally reachable, the derivation carried no new information, or the
	// hop budget was spent.
	OutcomeBranchEnded
)

// String returns a short human-readable name.
func (k OutcomeKind) String() string {
	switch k {
	case OutcomeDropped:
		return "dropped"
	case OutcomeAborted:
		return "aborted"
	case OutcomeCycleFound:
		return "cycle-found"
	case OutcomeForwarded:
		return "forwarded"
	case OutcomeBranchEnded:
		return "branch-ended"
	default:
		return "unknown"
	}
}

// Outcome reports one evaluation of a detection at this node.
type Outcome struct {
	Kind OutcomeKind
	// Forwarded counts the CDM derivations sent.
	Forwarded int
	// GarbageScions holds, for OutcomeCycleFound, every scion of the
	// detected cycle (the full source set).
	GarbageScions []ids.RefID
}

// Send is detection traffic for the node to transmit: the derivation Alg
// along each of Alongs (along.Src is this node, along.Dst the remote object)
// at forwarding depth Hops. A Send with no Alongs is a partial return, bound
// for the detection's origin. Alg is shared by every message it goes out in
// and is never mutated.
type Send struct {
	Alongs []ids.RefID
	Alg    Alg
	Hops   int
}

// Eval is one evaluation of a detection's view at this node — a launch, or
// one scion a delivered section is evaluated through — and what the node
// must do about it.
type Eval struct {
	Outcome
	// Along is the scion a delivery was evaluated through; zero for a
	// verdict on a returned union, which needs no scion.
	Along ids.RefID
	// Entries is the size of the accumulated view evaluated.
	Entries int
	// Send is the fan-out of an OutcomeForwarded evaluation.
	Send Send
	// Delete lists this node's scions of the cycle an OutcomeCycleFound
	// evaluation proved. The node deletes them; the acyclic collector
	// unravels the rest of the cycle from there.
	Delete []ids.RefID
}

// Section is one piece of detection traffic delivered to this node: a CDM
// arriving along Along (along.Dst.Node is this node), one section of a
// batched message, or — Return — a partial return to the detection's
// origin. Carried merges the section's algebra into the view, as Alg.Merge.
type Section struct {
	Det     DetectionID
	Along   ids.RefID
	Hops    int
	Return  bool
	Carried interface {
		MergeAlgInto(Alg) (changed, conflict bool)
	}
}

// StepKind classifies what a delivery did to the detection's view.
type StepKind int

const (
	// StepEvaluated: the section grew the view, or arrived along a new
	// scion, and the view was evaluated (Step.Evals).
	StepEvaluated StepKind = iota
	// StepDeduped: the section added nothing along a scion already known.
	StepDeduped
	// StepRaceDropped: the section's counters conflict with the view, a
	// mutator race: the detection is dropped here until the next Reset.
	StepRaceDropped
	// StepDropped: the detection was race-dropped here earlier.
	StepDropped
	// StepIgnored: a return that arrived before the first summary.
	StepIgnored
)

// Step is what one delivery did, in the order the detector did it.
type Step struct {
	Kind StepKind
	// Reset reports that the accumulator cap was hit: every view was dropped
	// before this section was merged.
	Reset bool
	// Entries is the size of the view after the merge.
	Entries int
	// Evals are the evaluations in the order they ran; a verdict
	// (OutcomeCycleFound, OutcomeAborted) is always the last.
	Evals []Eval
	// Return, when non-nil, is a partial return for the detection's origin.
	Return *Send
}

// Outcome folds the step's evaluations into one: the verdict if one was
// reached, else OutcomeForwarded if any evaluation forwarded, else
// OutcomeBranchEnded, with Forwarded summed. It is how one return, however
// many scions it relaunched through, reports.
func (s *Step) Outcome() Outcome {
	out := Outcome{Kind: OutcomeBranchEnded}
	for i := range s.Evals {
		ev := &s.Evals[i]
		out.Forwarded += ev.Forwarded
		switch ev.Kind {
		case OutcomeForwarded:
			out.Kind = OutcomeForwarded
		case OutcomeCycleFound, OutcomeAborted:
			out.Kind, out.GarbageScions = ev.Kind, ev.GarbageScions
		}
	}
	return out
}

// MaxAccumulators bounds the detections a detector holds a view of; a
// delivery that would exceed it drops them all (Step.Reset), which only
// costs repeated work.
const MaxAccumulators = 1 << 10

// accumulator is one detection's view at this node: alg is the union of
// every algebra delivered for it and every derivation shipped from here, and
// alongs the scions it arrived along, in canonical order. ver counts changes
// to alg and retVer is ver at the last partial return, so an unchanged view
// never returns twice. born is the caller's stamp at creation.
type accumulator struct {
	alg         Alg
	alongs      []ids.RefID
	ver, retVer uint64
	born        int64
}

// AccumulatorView describes one detection's accumulated view.
type AccumulatorView struct {
	Det     DetectionID
	Entries int   // references in the accumulated algebra
	Alongs  int   // distinct scions the detection arrived along
	Born    int64 // the stamp Deliver was handed when the view was created
}

// Detector runs the DCDA for one process. It is driven entirely by the
// owning node (which serializes calls) and touches only summarized
// snapshots — never the live heap — so it needs no synchronization with the
// mutator (§3.2 "there is no contention between the mutator and the DCDA").
// Its calls take values and return values: it counts nothing, sends
// nothing and deletes nothing, and reads no clock. Its state is its
// launch sequence and the per-detection views.
//
// The views extend the paper's per-hop step. CDMs of one detection reach a
// node over many converging paths, each carrying a different partial
// closure; merging them makes every evaluated delivery strictly grow the
// node's view, bounding evaluations per detection by the references in the
// closure. The views are droppable cache (Reset on each summarization, and
// when MaxAccumulators is hit): losing one repeats work but never affects
// safety, so the paper's "no correctness-critical per-detection state at
// intermediate processes" still holds.
type Detector struct {
	self    ids.NodeID
	seq     uint64
	acc     map[DetectionID]*accumulator
	aborted map[DetectionID]struct{}
}

// NewDetector returns a detector for the given node.
func NewDetector(self ids.NodeID) *Detector {
	return &Detector{self: self, acc: make(map[DetectionID]*accumulator), aborted: make(map[DetectionID]struct{})}
}

// Reset drops every detection's view and every race-drop mark.
func (d *Detector) Reset() {
	clear(d.acc)
	clear(d.aborted)
}

// Accumulators lists the views held, in (origin, seq) order.
func (d *Detector) Accumulators() []AccumulatorView {
	out := make([]AccumulatorView, 0, len(d.acc))
	for det, acc := range d.acc {
		out = append(out, AccumulatorView{Det: det, Entries: acc.alg.Len(), Alongs: len(acc.alongs), Born: acc.born})
	}
	slices.SortFunc(out, func(a, b AccumulatorView) int {
		return cmp.Or(cmp.Compare(a.Det.Origin, b.Det.Origin), cmp.Compare(a.Det.Seq, b.Det.Seq))
	})
	return out
}

// StartDetection initiates a cycle detection with the given scion as
// candidate (the scion plays the role of F_P2 in §3). The candidate must be
// a scion of this node present in sum. Returns the detection id and the
// evaluation; detections that cannot make a first hop (locally reachable
// candidate, no outgoing stubs) report OutcomeBranchEnded or OutcomeDropped
// and send nothing. A launch creates no view.
func (d *Detector) StartDetection(sum *Summary, candidate ids.RefID) (DetectionID, Eval) {
	d.seq++
	det := DetectionID{Origin: d.self, Seq: d.seq}
	sc, ok := sum.Scion(candidate)
	if !ok {
		return det, Eval{Outcome: Outcome{Kind: OutcomeDropped}}
	}
	if sc.LocalReach {
		// Locally reachable objects are live by definition; never trace.
		return det, Eval{Outcome: Outcome{Kind: OutcomeBranchEnded}}
	}
	ev, _ := d.expand(sum, sc, NewAlg(), 0)
	return det, ev
}

// Deliver merges one delivered section into its detection's view and
// evaluates the union. sum is the node's current summarized snapshot (nil
// before the first); born stamps a view this delivery creates.
//
// A section that adds nothing along a known scion is deduplicated; one whose
// counters conflict with the view race-drops the detection. A forward
// section evaluates the view through EVERY scion the detection arrived
// along, each behind the arrival guard: information that arrived via one
// scion must also flow out through the stubs reachable from the others. A
// partial return first takes the verdict on the union (matching is a
// property of the algebra, not of where it is evaluated), then relaunches
// only the unresolved residue through this node's own scions in its source
// set. Each forwarded derivation is folded back, so later evaluations
// recognize what was shipped, and the first verdict stops the loop.
//
// A forward section whose evaluations ended only on the no-new-information
// cut (§3.1 step 15) may hold a fragment of a closure split across branches
// that never meet: the view goes back to the origin, once per version. A
// drop (safety rule 1) or a cut at locally reachable stubs returns nothing.
func (d *Detector) Deliver(sum *Summary, sec Section, born int64) Step {
	det := sec.Det
	if _, ok := d.aborted[det]; ok {
		return Step{Kind: StepDropped}
	}
	if sec.Return && sum == nil {
		return Step{Kind: StepIgnored}
	}
	var step Step
	acc, ok := d.acc[det]
	if !ok {
		if len(d.acc) >= MaxAccumulators {
			d.Reset()
			step.Reset = true
		}
		acc = &accumulator{alg: NewAlg(), born: born}
		d.acc[det] = acc
	}
	changed, conflict := sec.Carried.MergeAlgInto(acc.alg)
	if conflict {
		delete(d.acc, det)
		d.aborted[det] = struct{}{}
		step.Kind = StepRaceDropped
		return step
	}
	if changed {
		acc.ver++
	}
	newAlong := false
	if i, known := slices.BinarySearchFunc(acc.alongs, sec.Along, ids.RefID.Compare); !sec.Return && !known {
		acc.alongs = slices.Insert(acc.alongs, i, sec.Along)
		newAlong = true
	}
	if !changed && !newAlong {
		step.Kind = StepDeduped
		return step
	}
	step.Entries = acc.alg.Len()

	through, guard := acc.alongs, true
	if sec.Return {
		if ev, done := d.verdict(acc.alg); done {
			ev.Entries = step.Entries
			step.Evals = []Eval{ev}
			return step
		}
		through, guard = nil, false
		for _, ref := range acc.alg.SourceRefs() {
			if ref.Dst.Node != d.self {
				continue
			}
			if sc, ok := sum.Scion(ref); ok && !sc.LocalReach {
				through = append(through, ref)
			}
		}
	}
	cut, forwarded := false, false
	for _, ref := range through {
		ev, noNewInfo := d.evaluate(sum, ref, acc.alg, sec.Hops, guard)
		ev.Along, ev.Entries = ref, acc.alg.Len()
		step.Evals = append(step.Evals, ev)
		switch ev.Kind {
		case OutcomeForwarded:
			forwarded = true
			// The derivation extends the view without conflict (expand
			// aborts on any), so folding it back only grows it.
			if ch, _ := acc.alg.Merge(ev.Send.Alg); ch {
				acc.ver++
			}
		case OutcomeCycleFound, OutcomeAborted:
			return step
		}
		cut = cut || noNewInfo
	}
	if cut && !forwarded && det.Origin != d.self && acc.ver > acc.retVer && acc.alg.Len() > 0 {
		acc.retVer = acc.ver
		step.Return = &Send{Alg: acc.alg.Clone(), Hops: sec.Hops + 1}
	}
	return step
}

// evaluate runs the view alg through this node's scion ref. guard applies
// the arrival guard, for a view that arrived along ref. noNewInfo reports
// the §3.1 step 15 cut.
func (d *Detector) evaluate(sum *Summary, ref ids.RefID, alg Alg, hops int, guard bool) (ev Eval, noNewInfo bool) {
	// Safety rules 1/2 (§2.2): the reference must have a scion in the
	// current summary. A CDM for a scion created after the last
	// summarization, or already deleted, is simply discarded ("these CDM
	// are simply discarded and those detections terminated", §3.2).
	sc, ok := sum.Scion(ref)
	if !ok {
		return Eval{Outcome: Outcome{Kind: OutcomeDropped}}, false
	}
	// Arrival guard (safety rule 3): the sender recorded its stub-side
	// counter for ref; our scion-side counter must agree, otherwise an
	// invocation crossed this reference between the two snapshots.
	if guard {
		if e, ok := alg.Get(ref); ok && e.InTarget && e.TgtIC != sc.IC {
			return Eval{Outcome: Outcome{Kind: OutcomeAborted}}, false
		}
	}
	// CDM matching at delivery (§3 steps 6, 13, 19, 25...).
	if ev, done := d.verdict(alg); done {
		return ev, false
	}
	// Safety rule 4: combine the CDM with this process's snapshot and
	// continue detection.
	return d.expand(sum, sc, alg, hops)
}

// verdict matches alg: a counter mismatch aborts, a source-empty reduction
// proves the cycle. done is false when neither holds.
func (d *Detector) verdict(alg Alg) (ev Eval, done bool) {
	found, abort := alg.MatchStatus()
	switch {
	case abort:
		return Eval{Outcome: Outcome{Kind: OutcomeAborted}}, true
	case found:
		return d.cycleFound(alg), true
	}
	return Eval{}, false
}

// cycleFound reports a proven cycle: every scion in the source set is
// garbage, and this node deletes its own.
func (d *Detector) cycleFound(alg Alg) Eval {
	garbage := alg.SourceRefs()
	var own []ids.RefID
	for _, ref := range garbage {
		if ref.Dst.Node == d.self {
			own = append(own, ref)
		}
	}
	return Eval{Outcome: Outcome{Kind: OutcomeCycleFound, GarbageScions: garbage}, Delete: own}
}

// expand implements the forwarding step: from the scion sc (either the
// candidate at detection start or the scion a CDM arrived at), build ONE
// derivation that merges every followable stub and its dependencies into
// the algebra, and forward it along each of those stubs.
//
// The paper's worked examples derive a separate algebra per stub (Alg_1a,
// Alg_1b, ...); merging is equivalent for detection purposes — cycle-found
// still requires every source scion matched by a consistently-countered
// stub — but makes the algebra a function of the VISITED SET rather than
// the traversal order. Per-path derivations explode combinatorially on
// dense graphs (every interleaving of a diamond yields a distinct algebra
// that keeps breeding); the merged form converges to the closure in
// O(closure) growth steps and lets receivers deduplicate identical CDMs.
func (d *Detector) expand(sum *Summary, sc ScionSummary, alg Alg, hops int) (ev Eval, noNewInfo bool) {
	if hops >= MaxHops {
		return Eval{Outcome: Outcome{Kind: OutcomeBranchEnded}}, false
	}

	derived := alg.Clone()
	conflict := false
	var eligible []ids.GlobalRef
	for _, tgt := range sc.StubsFrom {
		st, ok := sum.Stub(tgt)
		if !ok {
			// Stub vanished from the summary (rule 2's mirror): the path
			// cannot be followed consistently; skip it.
			continue
		}
		if st.LocalReach {
			// "Those stubs that are locally reachable are immediately
			// discarded from the point of view of the DCDA" (§2.1): the
			// path may be live; do not follow it.
			continue
		}
		eligible = append(eligible, tgt)
		if _, c := derived.AddTarget(ids.RefID{Src: d.self, Dst: tgt}, st.IC); c {
			conflict = true
		}
		// "All other scions that may lead to any of the aforementioned
		// stubs are included as dependencies" (§2.1, §3.1 step 5).
		for _, dep := range st.ScionsTo {
			depSc, ok := sum.Scion(dep)
			if !ok {
				continue
			}
			if _, c := derived.AddSource(dep, depSc.IC); c {
				conflict = true
			}
		}
	}
	if conflict {
		// Same reference observed with two different counters: race.
		return Eval{Outcome: Outcome{Kind: OutcomeAborted}}, false
	}
	// Matching is location-independent (§3.2: every source scion matched by a
	// consistently-countered stub), so both verdicts on the derivation are
	// exactly what the next hop would reach from the same algebra: a counter
	// mismatch aborts here instead of one message later (the paper's "can be
	// optimized if P1 analyzes unmatched counters"), and a closing match is
	// declared below instead of being forwarded along every eligible stub.
	found, abort := derived.MatchStatus()
	if abort {
		return Eval{Outcome: Outcome{Kind: OutcomeAborted}}, false
	}
	if len(eligible) == 0 {
		return Eval{Outcome: Outcome{Kind: OutcomeBranchEnded}}, false
	}
	if derived.Equal(alg) {
		// §3.1 step 15: the derivation holds no new information — the
		// branch would loop forever denouncing the same dependency.
		return Eval{Outcome: Outcome{Kind: OutcomeBranchEnded}}, true
	}
	if found {
		return d.cycleFound(derived), false
	}
	alongs := make([]ids.RefID, len(eligible))
	for i, tgt := range eligible {
		alongs[i] = ids.RefID{Src: d.self, Dst: tgt}
	}
	return Eval{
		Outcome: Outcome{Kind: OutcomeForwarded, Forwarded: len(eligible)},
		Send:    Send{Alongs: alongs, Alg: derived, Hops: hops + 1},
	}, false
}
