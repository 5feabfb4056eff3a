package core

import "dgc/internal/ids"

// Candidates returns the scions of sum eligible for cycle detection at
// logical time now, in canonical order.
//
// The paper leaves candidate selection out of scope ("efficient selection of
// cycle candidates is an issue out of the scope of this paper; heuristics
// found in the literature may be used") but describes the intuition in §2.1:
// an object kept alive solely by remote references that has not been invoked
// for a certain amount of time is a reasonable guess. A scion is nominated
// when it is
//
//   - not locally reachable in the summarized snapshot,
//   - has at least one outgoing path (StubsFrom non-empty), and
//   - has been quiescent for at least minAge ticks since its Active stamp.
//
// Any selection policy is safe — the DCDA itself rejects live candidates —
// so this function only affects efficiency, never correctness.
func Candidates(sum *Summary, now, minAge uint64) []ids.RefID {
	var out []ids.RefID
	for _, sc := range sum.Scions {
		if sc.LocalReach || len(sc.StubsFrom) == 0 || now < sc.Active+minAge {
			continue
		}
		out = append(out, sc.Ref)
	}
	return out
}
