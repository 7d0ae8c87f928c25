package sched

import (
	"strings"
	"sync"
)

// OpKind says what a shared-memory operation does to its object. The
// independence relation (independence.go) needs only two facts about a
// kind — whether it is read-only and whether its object is private to the
// invoking process — and both are fixed per kind.
type OpKind uint8

const (
	// KindUnparsed marks an Op built from a bare Proc.Exec label that has
	// not been mapped onto the relation yet; the runner resolves it with
	// ParseOp only when an OpAwarePolicy asks for the pending ops.
	KindUnparsed OpKind = iota
	// KindOther is a labeled step of no known kind: it may modify its
	// object, so it conflicts with every other step on that object.
	KindOther
	KindRead
	KindSnapshot
	KindWrite
	KindWriteStart
	KindWriteCommit
	KindTAS
	KindFetchInc
	KindInvoke
	KindPropose
	KindKTAS
	KindKLeader
	// KindDecide is the write to the process's own write-once output
	// register: per-process, so decides of distinct processes commute.
	KindDecide

	numKinds
)

// kindNames are the label suffixes of the object kinds, KindRead through
// KindKLeader.
var kindNames = [numKinds]string{
	KindRead:        "read",
	KindSnapshot:    "snapshot",
	KindWrite:       "write",
	KindWriteStart:  "write-start",
	KindWriteCommit: "write-commit",
	KindTAS:         "tas",
	KindFetchInc:    "fetchinc",
	KindInvoke:      "invoke",
	KindPropose:     "propose",
	KindKTAS:        "ktas",
	KindKLeader:     "kleader",
}

// ReadOnly reports whether operations of this kind never modify their
// object. The weak models' write-start/write-commit phases are not
// read-only: each conflicts with every other op on the object exactly as
// a one-step write does.
func (k OpKind) ReadOnly() bool { return k == KindRead || k == KindSnapshot }

// Op is one typed shared-memory operation: what a process hands the
// scheduler when it requests a step. Objects in package mem build their
// Ops once, at construction (Object), so a step costs no string work.
type Op struct {
	// Label fills Step.Op in recorded schedules: "<object>.<kind>" for
	// object operations, "decide" for the output write.
	Label string
	// Obj is the interned id of the object the op touches. 0 means the
	// op's footprint is unknown (a label outside the naming contract),
	// and the op conflicts with everything.
	Obj      uint32
	Kind     OpKind
	ReadOnly bool // the op never modifies its object
	PerProc  bool // the object is private to the invoking process
}

// decideObj is the object id of every process's output register. Decides
// are PerProc, so the relation never compares the id; it only has to be
// non-zero (known) and outside the interned range.
const decideObj = 1

// decideOp is the Op of Proc.Decide.
var decideOp = Op{Label: "decide", Obj: decideObj, Kind: KindDecide, PerProc: true}

// ObjectOps is the op table of one named shared object: the Op of every
// kind, with its label prebuilt. Object returns the same table for every
// call with the same name, so all instances of an object — one per
// re-executed run — share it.
type ObjectOps struct {
	name string
	id   uint32
	ops  [numKinds]Op
}

// Name returns the object's name.
func (o *ObjectOps) Name() string { return o.name }

// Op returns the object's operation of kind k, one of the object kinds
// KindRead through KindKLeader.
//
//gsb:hotpath
func (o *ObjectOps) Op(k OpKind) *Op { return &o.ops[k] }

var (
	objects  sync.Map // object name -> *ObjectOps
	internMu sync.Mutex
	nextObj  uint32 = decideObj
)

// Object interns name and returns its op table. Lookups of a known name
// are lock-free and allocation-free, so objects may call it on every
// construction; the first call for a name assigns the next object id and
// builds the table's labels.
func Object(name string) *ObjectOps {
	if o, ok := objects.Load(name); ok {
		return o.(*ObjectOps)
	}
	internMu.Lock()
	defer internMu.Unlock()
	if o, ok := objects.Load(name); ok {
		return o.(*ObjectOps)
	}
	nextObj++
	o := &ObjectOps{name: name, id: nextObj}
	for k := KindRead; k < KindDecide; k++ {
		o.ops[k] = Op{Label: name + "." + kindNames[k], Obj: o.id, Kind: k, ReadOnly: k.ReadOnly()}
	}
	objects.Store(name, o)
	return o
}

// labelFootprint is what a step label says about the step: the object it
// touches and its kind. known is false for labels outside the naming
// contract, whose footprint is unknown.
type labelFootprint struct {
	object string
	kind   OpKind
	known  bool
}

// footprintOf parses a step label: "decide" is the output write;
// "<object>.<kind>" touches object (a kind outside the table is
// KindOther); any other label is unknown.
func footprintOf(label string) labelFootprint {
	if label == decideOp.Label {
		return labelFootprint{kind: KindDecide, known: true}
	}
	i := strings.LastIndexByte(label, '.')
	if i < 0 {
		return labelFootprint{kind: KindOther}
	}
	return labelFootprint{object: label[:i], kind: kindByName(label[i+1:]), known: true}
}

// kindByName maps a label suffix onto its object kind (KindOther when it
// names none; "decide" is not an object kind).
func kindByName(s string) OpKind {
	for k := KindRead; k < KindDecide; k++ {
		if kindNames[k] == s {
			return k
		}
	}
	return KindOther
}

// ParseOp maps a step label onto the typed relation. The result for an
// "<object>.<kind>" label is the Op that Object(object) holds for that
// kind, so a step requested through Proc.Exec and the same step requested
// by a mem object are one and the same to the relation; "decide" is the
// output write, and any other label touches an unknown object (Obj 0)
// and conflicts with everything.
func ParseOp(label string) Op {
	fp := footprintOf(label)
	switch {
	case !fp.known:
		return Op{Label: label, Kind: KindOther}
	case fp.kind == KindDecide:
		return decideOp
	case fp.kind == KindOther:
		return Op{Label: label, Obj: Object(fp.object).id, Kind: KindOther}
	}
	return Object(fp.object).ops[fp.kind]
}
