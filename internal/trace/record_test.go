package trace

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"dgc/internal/core"
	"dgc/internal/ids"
	"dgc/internal/membership"
	"dgc/internal/wire"
)

// argKind names the type an emit call site passes for one verb.
type argKind int

const (
	kNode argKind = iota
	kU64
	kInt
	kU32
	kRef
	kGRef
	kOutcome
	kWireKind
	kState
	kStr
	kObj
	kDur
)

// emitFormats is every format string passed to Emit/EmitTraced in the tree
// (internal/node through emit/emitT, internal/admin's supervisor and fault
// handler) with the argument types of its call site. A new emit call site
// belongs here.
var emitFormats = []struct {
	format string
	args   []argKind
}{
	{"action=kill recover=%s", []argKind{kDur}},
	{"action=restart", nil},
	{"%s", []argKind{kStr}},
	{"from=%s kind=%s", []argKind{kNode, kWireKind}},
	{"det=%s/%d to=%s along=%s hops=%d", []argKind{kNode, kU64, kNode, kRef, kInt}},
	{"det=%s/%d to=%s along=%s hops=%d batched", []argKind{kNode, kU64, kNode, kRef, kInt}},
	{"to=%s sections=%d hops=%d sent", []argKind{kNode, kInt, kInt}},
	{"to=%s sections=%d hops=%d return sent", []argKind{kNode, kInt, kInt}},
	{"det=%s/%d outcome=%s", []argKind{kNode, kU64, kStr}},
	{"det=%s/%d outcome=%s", []argKind{kNode, kU64, kOutcome}},
	{"from=%s target=%d method=%s args=%d", []argKind{kNode, kObj, kStr, kInt}},
	{"det=%s/%d candidate=%s forced", []argKind{kNode, kU64, kRef}},
	{"det=%s/%d scions=%d forced", []argKind{kNode, kU64, kInt}},
	{"sections=%d hops=%d return received", []argKind{kInt, kU32}},
	{"from=%s sections=%d hops=%d received", []argKind{kNode, kInt, kU32}},
	{"det=%s/%d along=%s outcome=%s entries=%d", []argKind{kNode, kU64, kRef, kOutcome, kInt}},
	{"det=%s/%d scions=%d", []argKind{kNode, kU64, kInt}},
	{"det=%s/%d to=%s entries=%d hops=%d", []argKind{kNode, kU64, kNode, kInt, kInt}},
	{"det=%s/%d forwarded=%d entries=%d", []argKind{kNode, kU64, kInt, kInt}},
	{"det=%s/%d along=return outcome=%s entries=%d", []argKind{kNode, kU64, kOutcome, kInt}},
	{"ref=%s reason=stub-set", []argKind{kRef}},
	{"to=%s objs=%d sent", []argKind{kNode, kInt}},
	{"node=%s inc=%d", []argKind{kNode, kU64}},
	{"node=%s inc=%d prev=%s", []argKind{kNode, kU64, kState}},
	{"ref=%s holder=%s reason=%s", []argKind{kRef, kNode, kStr}},
	{"ref=%s reason=%s", []argKind{kRef, kStr}},
	{"holder=%s objs=%d pinned=%d received", []argKind{kNode, kInt, kInt}},
	{"det=%s/%d outcome=member-dead", []argKind{kNode, kU64}},
	{"to=%s sections=%d return dropped member-dead", []argKind{kNode, kInt}},
	{"swept=%d live=%d stubs-deleted=%d%s", []argKind{kInt, kInt, kInt, kStr}},
	{"version=%d scions=%d stubs=%d cached", []argKind{kU64, kInt, kInt}},
	{"version=%d scions=%d stubs=%d", []argKind{kU64, kInt, kInt}},
	{"det=%s/%d candidate=%s", []argKind{kNode, kU64, kRef}},
	{"ref=%s reason=cycle", []argKind{kRef}},
	// No call site prints a bare GlobalRef today; the renderer supports it.
	{"obj=%s", []argKind{kGRef}},
}

var longName = strings.Repeat("node-", 60) // 300 bytes

// edge returns variant v of an argument of kind k: ordinary values, zeros
// and empty names, extremes, and names that are long, non-ASCII or contain
// verbs of their own.
func edge(k argKind, v int) any {
	nodes := []ids.NodeID{"P1", "", ids.NodeID(longName), "ノード-7", "%d%s"}
	u64s := []uint64{7, 0, math.MaxUint64, 1 << 63, 42}
	ints := []int{3, 0, -1, math.MinInt64, math.MaxInt64}
	strs := []string{"cycle-found", "", strings.Repeat("method", 200), " trigger=stub-set", "100% %d"}
	v %= len(nodes)
	switch k {
	case kNode:
		return nodes[v]
	case kU64:
		return u64s[v]
	case kInt:
		return ints[v]
	case kU32:
		return []uint32{2, 0, math.MaxUint32, 1 << 31, 9}[v]
	case kRef:
		// Src and Dst.Node differ in every variant, so a renderer that
		// swapped them would be caught.
		return ids.RefID{Src: nodes[(v+1)%len(nodes)], Dst: ids.GlobalRef{Node: nodes[v], Obj: ids.ObjID(u64s[v])}}
	case kGRef:
		return ids.GlobalRef{Node: nodes[v], Obj: ids.ObjID(u64s[v])}
	case kOutcome:
		return []core.OutcomeKind{core.OutcomeCycleFound, core.OutcomeDropped, core.OutcomeKind(-3), core.OutcomeForwarded, core.OutcomeBranchEnded}[v]
	case kWireKind:
		return []wire.Kind{wire.KindCDM, 0, 255, wire.KindBatchCDM, wire.KindNewSetStubs}[v]
	case kState:
		return []membership.State{membership.Alive, 0, 200, membership.Dead, membership.Suspect}[v]
	case kStr:
		return strs[v]
	case kObj:
		return ids.ObjID(u64s[v])
	case kDur:
		return []time.Duration{500 * time.Millisecond, 0, -time.Second, math.MaxInt64, time.Microsecond}[v]
	}
	panic("unknown argKind")
}

// checkDetails asserts every event the log retains has the Node and Detail
// fmt would have printed for the emission with the same sequence number.
func checkDetails(t *testing.T, l *Log, want map[uint64]string) {
	t.Helper()
	events, _ := l.Since(0)
	for _, e := range events {
		if w, ok := want[e.Seq]; ok && e.Detail != w {
			t.Errorf("seq %d: Detail = %q, fmt.Sprintf = %q", e.Seq, e.Detail, w)
		}
		if e.Node != "P1" {
			t.Errorf("seq %d: Node = %q", e.Seq, e.Node)
		}
	}
}

// TestDetailByteIdentical renders every in-tree format with edge arguments
// and compares with fmt.Sprintf; every one of them must be stored as a
// record, not as fallback text, or this would test fmt against itself.
func TestDetailByteIdentical(t *testing.T) {
	l := New(4096)
	want := map[uint64]string{}
	for _, ef := range emitFormats {
		for v := 0; v < 5; v++ {
			args := make([]any, len(ef.args))
			for i, k := range ef.args {
				args[i] = edge(k, v+i)
			}
			l.EmitTraced("P1", KindCustom, uint64(v), ef.format, args...)
			want[l.Total()] = fmt.Sprintf(ef.format, args...)
			if r := l.buf[len(l.buf)-1]; r.shape == fallbackShape {
				t.Errorf("%q %v: journaled as fallback text", ef.format, args)
			}
		}
	}
	checkDetails(t, l, want)
	if len(l.tab.texts) != 0 {
		t.Errorf("%d fallback texts for in-tree formats", len(l.tab.texts))
	}
}

type formatted int

func (formatted) Format(s fmt.State, verb rune) { fmt.Fprintf(s, "F%c", verb) }

type panicky struct{}

func (panicky) String() string { panic("boom") }

type ptrStringer struct{ s string }

func (p *ptrStringer) String() string { return p.s }

type named string

type counted uint16

func (counted) String() string { return "counted" }

// TestDetailFallback covers what the renderer leaves to fmt — other verbs,
// flags, argument indexes, wrong counts and types, Formatters, errors,
// panicking Stringers, too many arguments for the slots — and the cases it
// does render that fmt treats specially.
func TestDetailFallback(t *testing.T) {
	ref := ids.RefID{Src: "A", Dst: ids.GlobalRef{Node: "B", Obj: 1}}
	cases := []struct {
		format   string
		args     []any
		fallback bool
	}{
		{"%v", []any{3}, true},
		{"%q", []any{"x"}, true},
		{"%x", []any{255}, true},
		{"%5d", []any{3}, true},
		{"%-s|", []any{"a"}, true},
		{"%[1]d %[1]d", []any{4}, true},
		{"%d", []any{"str"}, true},
		{"%s", []any{3}, true},
		{"%d %d", []any{1}, true},
		{"%d", []any{1, 2}, true},
		{"trailing %", nil, true},
		{"%s", []any{nil}, true},
		{"%d", []any{nil}, true},
		{"%s", []any{[]byte("b")}, true},
		{"%d", []any{true}, true},
		{"%d", []any{1.5}, true},
		{"%s", []any{errors.New("boom")}, true},
		{"%s", []any{formatted(1)}, true},
		{"%d", []any{formatted(1)}, true},
		{"%s", []any{panicky{}}, true},
		{"%s", []any{(*ptrStringer)(nil)}, true},
		{"%s %s %s %s %s", []any{"a", "b", "c", "d", "e"}, true},
		{"%d %d %d %d", []any{1, 2, 3, 4}, true},
		{"%s %s %s", []any{ref, ref, ref}, true},
		{"%s%s%s%s%s%s%s%s", []any{"a", "b", "c", "d", "e", "f", "g", "h"}, true},
		{"%%d %s", []any{"x"}, false},
		{"100%% %d%%", []any{5}, false},
		{"%s", []any{&ptrStringer{"ptr"}}, false},
		{"%s", []any{named("named")}, false},
		{"%d", []any{named("n")}, true},
		{"%d %s", []any{counted(7), counted(7)}, false},
		{"%d %d %d", []any{int8(-5), uint(7), uintptr(9)}, false},
		{"%d", []any{time.Duration(-5)}, false},
		{"%d", []any{int16(math.MinInt16)}, false},
		{"ünïcode %s ✓", []any{"ok"}, false},
		{"", nil, false},
	}
	l := New(256)
	want := map[uint64]string{}
	for _, c := range cases {
		l.Emit("P1", KindCustom, c.format, c.args...)
		want[l.Total()] = fmt.Sprintf(c.format, c.args...)
		if got := l.buf[len(l.buf)-1].shape == fallbackShape; got != c.fallback {
			t.Errorf("%q %v: fallback = %v, want %v", c.format, c.args, got, c.fallback)
		}
	}
	checkDetails(t, l, want)
}

// TestTablesFullFallBack fills the string and format tables past their
// bounds: later events are journaled as text, read back unchanged, and the
// text is freed when the ring evicts its record.
func TestTablesFullFallBack(t *testing.T) {
	l := New(64)
	want := map[uint64]string{}
	for i := 0; i < maxStrings+100; i++ {
		l.Emit("P1", KindFault, "%s", fmt.Sprintf("text-%d", i))
		want[l.Total()] = fmt.Sprintf("text-%d", i)
		f := fmt.Sprintf("f%d=%%d", i) // a new format every time
		l.Emit("P1", KindCustom, f, i)
		want[l.Total()] = fmt.Sprintf(f, i)
	}
	if len(l.tab.strs) != maxStrings || len(l.formats) != maxFormats {
		t.Fatalf("tables hold %d strings, %d formats; bounds are %d, %d",
			len(l.tab.strs), len(l.formats), maxStrings, maxFormats)
	}
	checkDetails(t, l, want)
	if len(l.tab.texts) == 0 || len(l.tab.texts) > l.cap {
		t.Fatalf("%d fallback texts retained by a %d-event ring", len(l.tab.texts), l.cap)
	}
	// A node name that no longer fits falls back too, Node included.
	l.Emit("late-node", KindCustom, "f0=%d", 1)
	if e := l.Snapshot(); e[len(e)-1].Node != "late-node" || e[len(e)-1].Detail != "f0=1" {
		t.Fatalf("late node event = %+v", e[len(e)-1])
	}
	for i := 0; i < l.cap; i++ {
		l.Emit("P1", KindCustom, "f0=%d", i)
	}
	if len(l.tab.texts) != 0 {
		t.Fatalf("%d fallback texts outlived their records", len(l.tab.texts))
	}
}

// FuzzJournalDetail renders the in-tree formats, and formats the renderer
// leaves to fmt, over fuzzed arguments and compares with fmt.Sprintf.
func FuzzJournalDetail(f *testing.F) {
	f.Add(uint8(4), "P1", "P2", int64(-1), uint64(math.MaxUint64))
	f.Add(uint8(15), "", "%d", int64(math.MinInt64), uint64(0))
	f.Add(uint8(40), "ノード", "a\x00b", int64(7), uint64(1<<63))
	fallbacks := []string{"%v %s", "%x|%d", "%5s %d", "%[2]s %[1]d", "%s %d %", "%s%%%d"}
	f.Fuzz(func(t *testing.T, which uint8, a, b string, n int64, u uint64) {
		l := New(16)
		var format string
		var args []any
		if i := int(which) % (len(emitFormats) + len(fallbacks)); i < len(emitFormats) {
			ef := emitFormats[i]
			format = ef.format
			for j, k := range ef.args {
				var v any
				switch k {
				case kNode:
					v = ids.NodeID([]string{a, b}[j%2])
				case kU64:
					v = u
				case kInt:
					v = int(n)
				case kU32:
					v = uint32(u)
				case kRef:
					v = ids.RefID{Src: ids.NodeID(a), Dst: ids.GlobalRef{Node: ids.NodeID(b), Obj: ids.ObjID(u)}}
				case kGRef:
					v = ids.GlobalRef{Node: ids.NodeID(b), Obj: ids.ObjID(u)}
				case kOutcome:
					v = core.OutcomeKind(n)
				case kWireKind:
					v = wire.Kind(u)
				case kState:
					v = membership.State(n)
				case kStr:
					v = b
				case kObj:
					v = ids.ObjID(u)
				case kDur:
					v = time.Duration(n)
				}
				args = append(args, v)
			}
		} else {
			format, args = fallbacks[i-len(emitFormats)], []any{a, n}
		}
		l.EmitTraced(ids.NodeID(a), KindCustom, u, format, args...)
		e := l.Snapshot()[0]
		if want := fmt.Sprintf(format, args...); e.Detail != want || e.Node != ids.NodeID(a) || e.Trace != u {
			t.Fatalf("%q %v: got node %q detail %q trace %d, want %q %q %d",
				format, args, e.Node, e.Detail, e.Trace, a, want, u)
		}
	})
}

// TestJournalRetainedBytesBounded is property B for the journal: a
// capacity-8192 log filled ten times over — every CDM event with a fresh
// detection seq and object id, plus 10 000 distinct free-form fault texts —
// retains no more after the tenth fill than after the first, and at most 80
// bytes per event (132 when events were kept as Sprintf'd strings).
func TestJournalRetainedBytesBounded(t *testing.T) {
	const (
		capacity    = 8192
		faults      = 10000
		maxPerEvent = 80
		slack       = 64 << 10
	)
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	l := New(capacity)
	fault := 0
	emit := func(i int) {
		if i%8 == 0 && fault < faults {
			l.Emit("P1", KindFault, "%s", fmt.Sprintf("action=delay peers=P%d+P%d for=%dms", fault%97, fault, i))
			fault++
			return
		}
		along := ids.RefID{Src: "P1", Dst: ids.GlobalRef{Node: "P2", Obj: ids.ObjID(i)}}
		l.EmitTraced("P1", KindCDMSent, uint64(i), "det=%s/%d to=%s along=%s hops=%d",
			ids.NodeID("P1"), uint64(i), along.Dst.Node, along, i%9)
	}
	i := 0
	for ; i < capacity; i++ {
		emit(i)
	}
	afterFirst := liveHeap()
	for ; i < 10*capacity; i++ {
		emit(i)
	}
	atEnd := liveHeap()
	runtime.KeepAlive(l)
	perEvent := float64(atEnd-before) / capacity
	t.Logf("retained after first fill %d B, after tenth %d B: %.1f B/event (%d fallback texts)",
		afterFirst-before, atEnd-before, perEvent, len(l.tab.texts))
	if atEnd > afterFirst+slack {
		t.Errorf("retained bytes grew %d B after the first fill (slack %d)", atEnd-afterFirst, slack)
	}
	if perEvent > maxPerEvent {
		t.Errorf("%.1f retained bytes per event, want <= %d", perEvent, maxPerEvent)
	}
}
