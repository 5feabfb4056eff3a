package trace

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"dgc/internal/ids"
)

// record is one retained event: fixed-size and pointer-free, so the ring is
// one allocation the garbage collector never scans and its size is a
// function of the capacity alone. The sequence number is implicit in the
// record's ring position. The detail is kept as its format's shape (an index
// into tables.shapes) and the argument values: strings as indices into
// tables.strs, integers as their 64 bits. An event whose detail does not fit
// that form has shape fallbackShape and its text, rendered at emit time, in
// tables.texts until the record is evicted. A record is 56 bytes.
type record struct {
	at    int64 // wall clock, Unix nanoseconds
	trace uint64
	ints  [3]uint64
	strs  [4]uint16
	node  uint16
	shape uint16
	kind  Kind
}

const fallbackShape = 0

// Bounds on the per-log tables, which only ever grow: past one, an event
// that would need a new entry is journaled as fallback text instead, which
// eviction frees. Node names, outcome and reason words and the formats of
// the emit call sites in the tree fit many times over.
const (
	maxStrings = 256
	maxFormats = 256
	maxShapes  = 1024
)

// argClass says how one argument is stored in a record's slots and rendered
// back. A shape packs its arguments' classes three bits each.
type argClass uint32

const (
	argStr  argClass = iota + 1 // one string slot
	argInt                      // one integer slot, signed
	argUint                     // one integer slot, unsigned
	argRef                      // ids.RefID: Src string, Dst.Obj integer, Dst.Node string
	argGRef                     // ids.GlobalRef: Obj integer, Node string
)

// format is a parsed format string: the literal runs around its verbs, each
// verb a bare %s or %d. ok is false for a format using anything else; such
// formats are cached too, so they are parsed once.
type format struct {
	lits   []string // len(verbs)+1 runs, "%%" already unescaped
	verbs  []byte
	ok     bool
	shapes []shapeRef
}

type shapeRef struct {
	sig uint32
	idx uint16
}

// shape is one format together with the classes of the arguments it was
// emitted with: all a record needs to be rendered.
type shape struct {
	lits []string
	sig  uint32
}

// text is the node and detail of an event journaled as text.
type text struct {
	seq    uint64
	node   ids.NodeID
	detail string
}

// tables resolve a record's indices. strs and shapes only ever append, so a
// copy of their slice headers taken under Log.mu stays valid after it is
// released. texts holds the fallback texts of the retained records in
// sequence order: the ring evicts oldest first, so a log pushes at the back
// and pops at the front, and it holds at most one text per retained record.
type tables struct {
	strs   []string
	shapes []shape
	texts  []text
}

// text returns the fallback text of the event numbered seq.
func (t *tables) text(seq uint64) text {
	i, _ := slices.BinarySearchFunc(t.texts, seq, func(x text, seq uint64) int { return cmp.Compare(x.seq, seq) })
	return t.texts[i]
}

// seqRecord is a record copied out of the ring with its sequence number.
type seqRecord struct {
	seq uint64
	rec record
}

// view is a read of the ring taken under Log.mu and rendered after it.
type view struct {
	recs []seqRecord
	tab  tables
}

// events appends the view's events to out.
func (v *view) events(out []Event) []Event {
	var buf []byte
	for i := range v.recs {
		var e Event
		e, buf = v.tab.event(v.recs[i].seq, &v.recs[i].rec, buf)
		out = append(out, e)
	}
	return out
}

// event materialises record r with sequence number seq, using buf as
// scratch for the detail.
func (t *tables) event(seq uint64, r *record, buf []byte) (Event, []byte) {
	e := Event{Seq: seq, Kind: r.kind, Trace: r.trace, At: time.Unix(0, r.at)}
	if r.shape == fallbackShape {
		x := t.text(seq)
		e.Node, e.Detail = x.node, x.detail
		return e, buf
	}
	e.Node = ids.NodeID(t.strs[r.node])
	buf = t.render(buf[:0], r)
	e.Detail = string(buf)
	return e, buf
}

// render appends r's detail exactly as fmt.Sprintf prints it: %s of a
// string or Stringer is its text, %d of an integer its decimal digits, and
// RefID and GlobalRef print through their String methods as
// "src->obj@node" and "obj@node".
func (t *tables) render(buf []byte, r *record) []byte {
	sh := &t.shapes[r.shape]
	ns, ni := 0, 0
	buf = append(buf, sh.lits[0]...)
	for i, lit := range sh.lits[1:] {
		switch argClass(sh.sig>>(3*i)) & 7 {
		case argStr:
			buf = append(buf, t.strs[r.strs[ns]]...)
			ns++
		case argInt:
			buf = strconv.AppendInt(buf, int64(r.ints[ni]), 10)
			ni++
		case argUint:
			buf = strconv.AppendUint(buf, r.ints[ni], 10)
			ni++
		case argRef:
			buf = append(buf, t.strs[r.strs[ns]]...)
			buf = append(buf, "->"...)
			buf = strconv.AppendUint(buf, r.ints[ni], 10)
			buf = append(buf, '@')
			buf = append(buf, t.strs[r.strs[ns+1]]...)
			ns += 2
			ni++
		case argGRef:
			buf = strconv.AppendUint(buf, r.ints[ni], 10)
			buf = append(buf, '@')
			buf = append(buf, t.strs[r.strs[ns]]...)
			ns++
			ni++
		}
		buf = append(buf, lit...)
	}
	return buf
}

// pack stores node and the detail's arguments into r and sets its shape,
// reporting false when the event must be journaled as text: a format with
// other verbs, flags or a wrong argument count, an argument type or verb
// the renderer does not reproduce, more arguments than the slots hold, or a
// new string, format or shape past its table's bound. Caller holds l.mu.
func (l *Log) pack(r *record, node ids.NodeID, fmtStr string, args []any) bool {
	f := l.formats[fmtStr]
	if f == nil {
		if len(l.formats) >= maxFormats {
			return false
		}
		f = parseFormat(fmtStr)
		l.formats[fmtStr] = f
	}
	if !f.ok || len(args) != len(f.verbs) {
		return false
	}
	n, ok := l.intern(string(node))
	if !ok {
		return false
	}
	r.node = n
	s := slots{l: l, r: r}
	var sig uint32
	for i, a := range args {
		c := s.arg(f.verbs[i], a)
		if c == 0 {
			return false
		}
		sig |= uint32(c) << (3 * i)
	}
	for _, sr := range f.shapes {
		if sr.sig == sig {
			r.shape = sr.idx
			return true
		}
	}
	if len(l.tab.shapes) >= maxShapes {
		return false
	}
	r.shape = uint16(len(l.tab.shapes))
	l.tab.shapes = append(l.tab.shapes, shape{lits: f.lits, sig: sig})
	f.shapes = append(f.shapes, shapeRef{sig: sig, idx: r.shape})
	return true
}

// parseFormat splits a format string into literal runs around bare %s and
// %d verbs.
func parseFormat(fmtStr string) *format {
	f := &format{}
	var lit []byte
	for i := 0; i < len(fmtStr); i++ {
		c := fmtStr[i]
		if c != '%' {
			lit = append(lit, c)
			continue
		}
		if i++; i == len(fmtStr) {
			return f
		}
		switch c = fmtStr[i]; c {
		case '%':
			lit = append(lit, '%')
		case 's', 'd':
			f.lits = append(f.lits, string(lit))
			f.verbs = append(f.verbs, c)
			lit = lit[:0]
		default:
			return f
		}
	}
	// Seven slots hold at most seven arguments, 21 bits of shape signature.
	f.lits = append(f.lits, string(lit))
	f.ok = len(f.verbs) <= 7
	return f
}

// slots fills one record's string and integer slots in order.
type slots struct {
	l      *Log
	r      *record
	ns, ni int
}

func (s *slots) str(v string) bool {
	if s.ns == len(s.r.strs) {
		return false
	}
	i, ok := s.l.intern(v)
	if ok {
		s.r.strs[s.ns] = i
		s.ns++
	}
	return ok
}

func (s *slots) num(v uint64) bool {
	if s.ni == len(s.r.ints) {
		return false
	}
	s.r.ints[s.ni] = v
	s.ni++
	return true
}

// arg stores one argument printed with verb and returns its class, or 0
// when fmt would print it in a way render does not reproduce.
func (s *slots) arg(verb byte, a any) argClass {
	if verb == 'd' {
		v, signed, ok := integer(a)
		switch {
		case !ok || !s.num(v):
			return 0
		case signed:
			return argInt
		}
		return argUint
	}
	ok := false
	switch a := a.(type) {
	case string:
		ok = s.str(a)
	case ids.NodeID:
		ok = s.str(string(a))
	case ids.RefID:
		if s.str(string(a.Src)) && s.num(uint64(a.Dst.Obj)) && s.str(string(a.Dst.Node)) {
			return argRef
		}
	case ids.GlobalRef:
		if s.num(uint64(a.Obj)) && s.str(string(a.Node)) {
			return argGRef
		}
	case fmt.Formatter, error:
		// fmt prefers these to String; leave them to fmt.
	case fmt.Stringer:
		v, called := stringOf(a)
		ok = called && s.str(v)
	default:
		if rv := reflect.ValueOf(a); rv.Kind() == reflect.String {
			ok = s.str(rv.String())
		}
	}
	if ok {
		return argStr
	}
	return 0
}

// integer returns a %d argument's bits and signedness; ok is false for a
// non-integer or a fmt.Formatter. The cases before reflection are the types
// the tree's call sites pass.
func integer(a any) (v uint64, signed, ok bool) {
	switch a := a.(type) {
	case int:
		return uint64(a), true, true
	case uint64:
		return a, false, true
	case uint32:
		return uint64(a), false, true
	case ids.ObjID:
		return uint64(a), false, true
	case fmt.Formatter:
		return 0, false, false
	}
	switch rv := reflect.ValueOf(a); rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return uint64(rv.Int()), true, true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return rv.Uint(), false, true
	}
	return 0, false, false
}

// stringOf calls a.String(); called is false if it panicked. The event then
// falls back to fmt.Sprintf, which calls String again and reports the panic
// in the detail, as it always has.
func stringOf(a fmt.Stringer) (v string, called bool) {
	defer func() {
		if recover() != nil {
			called = false
		}
	}()
	return a.String(), true
}

// intern returns v's index in the string table, adding a copy of it while
// the table is under its bound. Caller holds l.mu.
func (l *Log) intern(v string) (uint16, bool) {
	if i, ok := l.strIdx[v]; ok {
		return i, true
	}
	if len(l.tab.strs) >= maxStrings {
		return 0, false
	}
	i := uint16(len(l.tab.strs))
	v = strings.Clone(v) // never pin a larger string v was cut from
	l.tab.strs = append(l.tab.strs, v)
	l.strIdx[v] = i
	return i, true
}
