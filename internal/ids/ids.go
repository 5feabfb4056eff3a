// Package ids defines the identifier types shared by every layer of the
// distributed garbage collector: node identifiers, object identifiers,
// global references (an object qualified by its owning node) and reference
// identifiers (one specific inter-process reference, the element type of the
// CDM algebra).
package ids

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// NodeID names a process in the distributed system. Node identifiers are
// opaque strings (host:port for TCP deployments, symbolic names such as "P1"
// in simulations and in the paper's examples).
type NodeID string

// ObjID identifies an object within a single process. Object identifiers are
// allocated densely per node and are never reused within a run.
type ObjID uint64

// GlobalRef names an object anywhere in the distributed system: the node that
// owns it plus its object identifier within that node.
type GlobalRef struct {
	Node NodeID
	Obj  ObjID
}

// String renders the reference in the paper's subscript style, e.g. "F@P2".
func (g GlobalRef) String() string {
	// Manual concat: this renders on every journal emission and table dump,
	// where nested Sprintf calls dominated the cost.
	return strconv.FormatUint(uint64(g.Obj), 10) + "@" + string(g.Node)
}

// IsZero reports whether g is the zero reference (no node and object 0).
func (g GlobalRef) IsZero() bool { return g.Node == "" && g.Obj == 0 }

// Compare imposes a total order on global references (node, then object),
// returning -1, 0 or +1. Used to produce deterministic iteration orders in
// snapshots, wire encoding and test output.
func (g GlobalRef) Compare(o GlobalRef) int {
	if g.Node != o.Node {
		return strings.Compare(string(g.Node), string(o.Node))
	}
	return cmp.Compare(g.Obj, o.Obj)
}

// Less reports whether g sorts before o.
func (g GlobalRef) Less(o GlobalRef) bool { return g.Compare(o) < 0 }

// RefID identifies one inter-process reference: the node holding the
// outgoing reference (Src) and the referenced object (Dst). A stub at Src and
// a scion at Dst.Node describe the two ends of the same RefID.
//
// RefID is the element type of the CDM algebra. The paper denotes elements by
// the target object alone (e.g. F_P2) because its examples have a single
// incoming reference per object; keying by the full reference keeps matching
// exact when an object has several scions.
type RefID struct {
	Src NodeID
	Dst GlobalRef
}

// String renders the reference as "P1->F@P2".
func (r RefID) String() string {
	return string(r.Src) + "->" + r.Dst.String()
}

// ParseRefID parses String's "SRC->OBJ@NODE" rendering (the Ref field of
// table dumps, the admin API's scion selector) back into a RefID. It splits
// at the first "->" and the "@" after the object id, so it inverts String for
// every source name without "->".
func ParseRefID(s string) (RefID, error) {
	src, rest, ok := strings.Cut(s, "->")
	if !ok {
		return RefID{}, fmt.Errorf("bad ref %q: want SRC->OBJ@NODE", s)
	}
	objStr, nodeStr, ok := strings.Cut(rest, "@")
	if !ok || src == "" || nodeStr == "" {
		return RefID{}, fmt.Errorf("bad ref %q: want SRC->OBJ@NODE", s)
	}
	obj, err := strconv.ParseUint(objStr, 10, 64)
	if err != nil {
		return RefID{}, fmt.Errorf("bad ref %q: object id: %w", s, err)
	}
	return RefID{Src: NodeID(src), Dst: GlobalRef{Node: NodeID(nodeStr), Obj: ObjID(obj)}}, nil
}

// Compare imposes a total order on reference identifiers (source, then
// target), returning -1, 0 or +1.
func (r RefID) Compare(o RefID) int {
	if r.Src != o.Src {
		return strings.Compare(string(r.Src), string(o.Src))
	}
	return r.Dst.Compare(o.Dst)
}

// Less reports whether r sorts before o.
func (r RefID) Less(o RefID) bool { return r.Compare(o) < 0 }

// SortGlobalRefs sorts a slice of global references in place into the
// canonical order defined by GlobalRef.Less.
func SortGlobalRefs(refs []GlobalRef) { slices.SortFunc(refs, GlobalRef.Compare) }

// SortRefIDs sorts a slice of reference identifiers in place into the
// canonical order defined by RefID.Less.
func SortRefIDs(refs []RefID) { slices.SortFunc(refs, RefID.Compare) }

// SortNodeIDs sorts node identifiers in place.
func SortNodeIDs(nodes []NodeID) { slices.Sort(nodes) }

// FormatRefSet renders a set of reference identifiers as a deterministic
// brace-enclosed list, e.g. "{P1->2@P2, P3->7@P4}". Intended for logs and
// test diagnostics.
func FormatRefSet(set map[RefID]struct{}) string {
	refs := make([]RefID, 0, len(set))
	for r := range set {
		refs = append(refs, r)
	}
	SortRefIDs(refs)
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range refs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(r.String())
	}
	b.WriteByte('}')
	return b.String()
}
