package core

import (
	"dgc/internal/ids"
	"dgc/internal/snapshot"
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
// 64-bit tag carried by every CDM of the detection (through the wire codec,
// across every hop), so one detection can be followed across nodes in
// /debug/dgc snapshots and trace logs. The id is a pure function of the
// DetectionID — FNV-1a over the origin name folded with the sequence number,
// finished with the splitmix64 mixer — so it is deterministic (simulation
// fingerprints are unaffected) and any process can recompute it without
// coordination.
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

// Config tunes a node's detector.
type Config struct {
	// BroadcastDelete, when set, makes a cycle-finding node send DeleteScion
	// notifications for the source-set scions owned by other processes,
	// short-cutting the acyclic collector's cascade (read in cycleFound).
	// When unset (the paper's behaviour), only the finder's own scions are
	// deleted and the cascade unravels the rest. Kept as an ablation
	// (dgc-bench -exp ablation) until the live benchmark decides between
	// the two unravels (ROADMAP item 4(b)).
	BroadcastDelete bool
}

// MaxHops is the CDM hop budget: a CDM that has been forwarded this many
// times is not forwarded again. Dropping a CDM is always safe; a detection
// needs at most O(|closure|) strictly-growing hops, so 256 covers any
// realistic cycle while bounding worst-case traffic on adversarial
// topologies.
const MaxHops = 256

// Actions is the detector's outbound interface, implemented by the node: it
// decouples the algorithm from transport and tables.
type Actions interface {
	// SendCDMs forwards a CDM derivation along each of the stubs in
	// `alongs` (along.Src is the local node, along.Dst the remote object).
	// hops is the derivation's forwarding depth and trace the detection's
	// causal trace id (TraceIDFor), both carried in every message. Handing
	// the whole fan-out to the implementation at once lets it flatten the
	// algebra a single time and share the result across peers.
	SendCDMs(det DetectionID, trace uint64, alongs []ids.RefID, alg Alg, hops int)
	// DeleteOwnScion removes the local scion for ref (ref.Dst.Node is the
	// local node) and must trigger acyclic-DGC reclamation.
	DeleteOwnScion(ref ids.RefID)
	// SendDeleteScion notifies ref.Dst.Node that the scion for ref belongs
	// to a detected garbage cycle (only used with BroadcastDelete).
	SendDeleteScion(det DetectionID, ref ids.RefID)
}

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
	// locally reachable, the derivation carried no new information
	// (Outcome.NoNewInfo), or the hop budget was spent.
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

// Outcome reports the processing of one CDM delivery or detection start.
type Outcome struct {
	Kind OutcomeKind
	// Forwarded counts CDM derivations sent, whatever the Kind (a return
	// can relaunch through one scion and reach a verdict through the next).
	Forwarded int
	// GarbageScions holds, for OutcomeCycleFound, every scion of the
	// detected cycle (the full source set).
	GarbageScions []ids.RefID
	// Derived is the algebra that was forwarded (OutcomeForwarded only).
	// Callers that accumulate per-detection state merge it back so later
	// expansions recognize already-shipped information.
	Derived *Alg
	// NoNewInfo marks an OutcomeBranchEnded cut by the no-new-information
	// check (§3.1 step 15): the branch stopped on a view already shipped from
	// here, so the closure may be split across branches that never meet. It
	// is the one cut after which a node sends the origin a partial return.
	NoNewInfo bool
}

// Detector runs the DCDA for one process. It is driven entirely by the
// owning node (which serializes calls) and touches only summarized
// snapshots — never the live heap — so it needs no synchronization with the
// mutator (§3.2 "there is no contention between the mutator and the DCDA").
// It counts nothing: every call returns an Outcome, and the node records
// those in its metric registry.
type Detector struct {
	self    ids.NodeID
	cfg     Config
	actions Actions
	seq     uint64
}

// NewDetector returns a detector for the given node.
func NewDetector(self ids.NodeID, cfg Config, actions Actions) *Detector {
	return &Detector{self: self, cfg: cfg, actions: actions}
}

// Self returns the owning node's identifier.
func (d *Detector) Self() ids.NodeID { return d.self }

// StartDetection initiates a cycle detection with the given scion as
// candidate (the scion plays the role of F_P2 in §3). The candidate must be
// a scion of this node present in sum. Returns the detection id and an
// outcome; detections that cannot make a first hop (locally reachable
// candidate, no outgoing stubs) report OutcomeBranchEnded or OutcomeDropped
// and send nothing.
func (d *Detector) StartDetection(sum *snapshot.Summary, candidate ids.RefID) (DetectionID, Outcome) {
	d.seq++
	det := DetectionID{Origin: d.self, Seq: d.seq}
	sc := sum.Scion(candidate)
	if sc == nil {
		return det, Outcome{Kind: OutcomeDropped}
	}
	if sc.LocalReach {
		// Locally reachable objects are live by definition; never trace.
		return det, Outcome{Kind: OutcomeBranchEnded}
	}
	out := d.expand(sum, det, sc, NewAlg(), 0, TraceIDFor(det))
	return det, out
}

// HandleCDM processes a CDM delivered along the reference `along`
// (along.Dst.Node must be this node). sum is the node's current summarized
// snapshot; hops is the forwarding depth and trace the causal trace id
// carried by the message (propagated unchanged into any forwarded CDMs).
func (d *Detector) HandleCDM(sum *snapshot.Summary, det DetectionID, along ids.RefID, alg Alg, hops int, trace uint64) Outcome {
	// Safety rules 1/2 (§2.2): the reference must have a scion in the
	// current summary. A CDM for a scion created after the last
	// summarization, or already deleted, is simply discarded ("these CDM
	// are simply discarded and those detections terminated", §3.2).
	sc := sum.Scion(along)
	if sc == nil {
		return Outcome{Kind: OutcomeDropped}
	}

	// Arrival guard (safety rule 3): the sender recorded its stub-side
	// counter for `along`; our scion-side counter must agree, otherwise an
	// invocation crossed this reference between the two snapshots.
	if e, ok := alg.Get(along); ok && e.InTarget && e.TgtIC != sc.IC {
		return Outcome{Kind: OutcomeAborted}
	}

	// CDM matching at delivery (§3 steps 6, 13, 19, 25...).
	cycleFound, abort := alg.MatchStatus()
	if abort {
		return Outcome{Kind: OutcomeAborted}
	}
	if cycleFound {
		return d.cycleFound(det, alg)
	}

	// Safety rule 4: combine the CDM with this process's snapshot and
	// continue detection.
	return d.expand(sum, det, sc, alg, hops, trace)
}

// HandleReturn processes a partial return sent to this node — the
// detection's origin — by a node whose branch was cut. alg is the
// origin's accumulated union of every returned fragment (the caller merged
// the arriving section in already). Evaluating it here is the same operation
// an intermediate node performs on its own accumulator: a counter mismatch
// aborts, a source-empty reduction proves the cycle (the matching rule is a
// property of the algebra, not of where it is evaluated). Otherwise only the
// unresolved residue is re-launched: the union is re-expanded through each
// of this node's own scions named in its source set, and expand's no-new-
// information check guarantees the relaunch forwards nothing downstream
// already has.
func (d *Detector) HandleReturn(sum *snapshot.Summary, det DetectionID, alg Alg, hops int, trace uint64) Outcome {
	cycleFound, abort := alg.MatchStatus()
	if abort {
		return Outcome{Kind: OutcomeAborted}
	}
	if cycleFound {
		return d.cycleFound(det, alg)
	}
	agg := Outcome{Kind: OutcomeBranchEnded}
	cur := alg
	for _, ref := range alg.SourceRefs() {
		if ref.Dst.Node != d.self {
			continue
		}
		sc := sum.Scion(ref)
		if sc == nil || sc.LocalReach {
			continue
		}
		out := d.expand(sum, det, sc, cur, hops, trace)
		switch out.Kind {
		case OutcomeCycleFound, OutcomeAborted:
			// Relaunches through earlier scions already went out.
			out.Forwarded += agg.Forwarded
			return out
		case OutcomeForwarded:
			agg.Kind = OutcomeForwarded
			agg.Forwarded += out.Forwarded
			agg.Derived = out.Derived
			// Later expansions work off the grown view so they recognize
			// (and skip re-shipping) what this relaunch already sent.
			cur = *out.Derived
		}
	}
	return agg
}

// cycleFound deletes this node's scions named in the CDM source set and,
// optionally, notifies the owners of the remaining ones.
func (d *Detector) cycleFound(det DetectionID, alg Alg) Outcome {
	garbage := alg.SourceRefs()
	for _, ref := range garbage {
		if ref.Dst.Node == d.self {
			d.actions.DeleteOwnScion(ref)
		} else if d.cfg.BroadcastDelete {
			d.actions.SendDeleteScion(det, ref)
		}
	}
	return Outcome{Kind: OutcomeCycleFound, GarbageScions: garbage}
}

// HandleDeleteScion processes a DeleteScion notification (BroadcastDelete
// mode): the sender proved ref's scion belongs to a garbage cycle.
func (d *Detector) HandleDeleteScion(ref ids.RefID) {
	if ref.Dst.Node != d.self {
		return
	}
	d.actions.DeleteOwnScion(ref)
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
func (d *Detector) expand(sum *snapshot.Summary, det DetectionID, sc *snapshot.ScionSummary, alg Alg, hops int, trace uint64) Outcome {
	if hops >= MaxHops {
		return Outcome{Kind: OutcomeBranchEnded}
	}

	derived := alg.Clone()
	conflict := false
	var eligible []ids.GlobalRef
	for _, tgt := range sc.StubsFrom {
		st := sum.Stub(tgt)
		if st == nil {
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
			depSc := sum.Scion(dep)
			if depSc == nil {
				continue
			}
			if _, c := derived.AddSource(dep, depSc.IC); c {
				conflict = true
			}
		}
	}
	if conflict {
		// Same reference observed with two different counters: race.
		return Outcome{Kind: OutcomeAborted}
	}
	// Matching is location-independent (§3.2: every source scion matched by a
	// consistently-countered stub), so both verdicts on the derivation are
	// exactly what the next hop would reach from the same algebra: a counter
	// mismatch aborts here instead of one message later (the paper's "can be
	// optimized if P1 analyzes unmatched counters"), and a closing match is
	// declared below instead of being forwarded along every eligible stub.
	found, abort := derived.MatchStatus()
	if abort {
		return Outcome{Kind: OutcomeAborted}
	}
	if len(eligible) == 0 {
		return Outcome{Kind: OutcomeBranchEnded}
	}
	if derived.Equal(alg) {
		// §3.1 step 15: the derivation holds no new information — the
		// branch would loop forever denouncing the same dependency.
		return Outcome{Kind: OutcomeBranchEnded, NoNewInfo: true}
	}
	if found {
		return d.cycleFound(det, derived)
	}
	alongs := make([]ids.RefID, len(eligible))
	for i, tgt := range eligible {
		alongs[i] = ids.RefID{Src: d.self, Dst: tgt}
	}
	d.actions.SendCDMs(det, trace, alongs, derived, hops+1)
	return Outcome{Kind: OutcomeForwarded, Forwarded: len(eligible), Derived: &derived}
}
