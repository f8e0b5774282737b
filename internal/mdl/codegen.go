package mdl

import (
	"fmt"
	"strconv"
	"strings"

	"pperf/internal/metric"
	"pperf/internal/mpi"
	"pperf/internal/probe"
)

// The snippet compiler. Compile resolves every name in a (* ... *) block
// against its declaration's scope and turns each statement and expression
// into a generator: a function that, given one instance's frame, returns a
// closure over that instance's counters and timers. Binding a ProbeSpec to
// an instance builds one handler that does no name lookup, no type dispatch
// and no boxing when its probe fires; every function the spec instruments
// shares that handler.

// frame is one instance's storage as its handlers see it: the counters the
// compiler resolved names to, the timer of a timer metric, the bound
// $constraint components, and the gates of constrained statements.
type frame struct {
	counters []*metric.Counter
	wall     *metric.WallTimer
	proc     *metric.ProcessTimer
	cargs    []string
	// flags are the MDL constraint flag counters that must all be nonzero
	// for constrained statements to execute.
	flags []*metric.Counter
	// preds are native constraint predicates (procedure/module/sync
	// category) with the same gating role.
	preds []func(ev *probe.Event) bool
}

// scoped returns the frame a constraint's snippets bind to: the constraint's
// own flag counter, its $constraint components, and the gates in force when
// it was instantiated.
func (fr *frame) scoped(flag *metric.Counter, cargs []string) *frame {
	return &frame{counters: []*metric.Counter{flag}, cargs: cargs, flags: fr.flags, preds: fr.preds}
}

// carg is $constraint[i]: the i-th bound component, or "" out of range.
func (fr *frame) carg(i int) string {
	if i < 0 || i >= len(fr.cargs) {
		return ""
	}
	return fr.cargs[i]
}

// satisfied reports whether all constraints hold for a constrained
// statement at this event. Both kinds of gate are pure, so the cheap flag
// reads go before the call-stack walks.
func (fr *frame) satisfied(ev *probe.Event) bool {
	for _, f := range fr.flags {
		if f.Value() == 0 {
			return false
		}
	}
	for _, p := range fr.preds {
		if !p(ev) {
			return false
		}
	}
	return true
}

// fn evaluates a compiled expression at a probe event.
type fn[T any] func(ev *probe.Event) T

// gen builds an expression's evaluator for one instance.
type gen[T any] func(fr *frame) fn[T]

// stmtGen builds a statement's executor for one instance.
type stmtGen func(fr *frame) probe.Handler

// kind is an expression's static type. Only $arg values are dynamic.
type kind uint8

const (
	kNum kind = iota
	kStr
	kBool
	kAny
)

// value is a compiled expression: its static kind and the generator of
// that kind (the other generators are nil).
type value struct {
	kind kind
	num  gen[float64]
	str  gen[string]
	cond gen[bool]
	dyn  gen[any]
}

func constant[T any](v T) gen[T] {
	f := fn[T](func(*probe.Event) T { return v })
	return func(*frame) fn[T] { return f }
}

func lift[A, B any](g gen[A], op func(A) B) gen[B] {
	return func(fr *frame) fn[B] {
		a := g(fr)
		return func(ev *probe.Event) B { return op(a(ev)) }
	}
}

func lift2[A, B, C any](ga gen[A], gb gen[B], op func(A, B) C) gen[C] {
	return func(fr *frame) fn[C] {
		a, b := ga(fr), gb(fr)
		return func(ev *probe.Event) C { return op(a(ev), b(ev)) }
	}
}

// snippet is a ProbeSpec compiled against its declaration's scope.
type snippet struct {
	where       probe.Where
	order       probe.Order
	constrained bool
	body        []stmtGen
}

// boundProbe is a snippet bound to one instance: the handler shared by
// every function the spec instruments.
type boundProbe struct {
	where probe.Where
	order probe.Order
	h     probe.Handler
}

func (sn *snippet) bind(fr *frame) boundProbe {
	stmts := make([]probe.Handler, len(sn.body))
	for i, g := range sn.body {
		stmts[i] = g(fr)
	}
	run := func(ev *probe.Event) {
		for _, s := range stmts {
			s(ev)
		}
	}
	if len(stmts) == 1 {
		run = stmts[0]
	}
	h := run
	if sn.constrained {
		h = func(ev *probe.Event) {
			if fr.satisfied(ev) {
				run(ev)
			}
		}
	}
	return boundProbe{where: sn.where, order: sn.order, h: h}
}

func bindAll(sns []*snippet, fr *frame) []boundProbe {
	out := make([]boundProbe, len(sns))
	for i, sn := range sns {
		out[i] = sn.bind(fr)
	}
	return out
}

// scope is what a declaration's snippets may name: its counters (name →
// frame slot) and the timer of a timer metric. line locates errors.
type scope struct {
	counters map[string]int
	wall     string
	proc     string
	line     int
}

func (sc *scope) errf(format string, args ...any) error {
	return fmt.Errorf("mdl:%d: "+format, append([]any{sc.line}, args...)...)
}

func (sc *scope) snippet(ps *ProbeSpec) (*snippet, error) {
	sc.line = ps.Line
	sn := &snippet{where: ps.Where, order: ps.Order, constrained: ps.Constrained}
	for _, s := range ps.Stmts {
		g, err := sc.stmt(s)
		if err != nil {
			return nil, err
		}
		sn.body = append(sn.body, g)
	}
	return sn, nil
}

func (sc *scope) foreachs(fes []*Foreach) ([]compiledForeach, error) {
	out := make([]compiledForeach, len(fes))
	for i, fe := range fes {
		out[i].set = fe.SetName
		for _, ps := range fe.Probes {
			sn, err := sc.snippet(ps)
			if err != nil {
				return nil, err
			}
			out[i].snippets = append(out[i].snippets, sn)
		}
	}
	return out, nil
}

func (sc *scope) counter(name string) (int, error) {
	slot, ok := sc.counters[name]
	if !ok {
		return 0, sc.errf("unknown counter %q", name)
	}
	return slot, nil
}

func (sc *scope) stmt(s Stmt) (stmtGen, error) {
	switch st := s.(type) {
	case *IncStmt:
		slot, err := sc.counter(st.Var)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) probe.Handler {
			c := fr.counters[slot]
			return func(*probe.Event) { c.Add(1) }
		}, nil
	case *AddAssignStmt:
		return sc.assign(st.Var, st.Val, (*metric.Counter).Add)
	case *AssignStmt:
		return sc.assign(st.Var, st.Val, (*metric.Counter).Set)
	case *IfStmt:
		v, err := sc.expr(st.Cond)
		if err != nil {
			return nil, err
		}
		then, err := sc.stmt(st.Then)
		if err != nil {
			return nil, err
		}
		cond := condOf(v)
		return func(fr *frame) probe.Handler {
			c, t := cond(fr), then(fr)
			return func(ev *probe.Event) {
				if c(ev) {
					t(ev)
				}
			}
		}, nil
	case *CallStmt:
		return sc.call(st)
	}
	return nil, sc.errf("unknown statement %T", s)
}

// assign compiles `name += x` (op Add) and `name = x` (op Set).
func (sc *scope) assign(name string, x Expr, op func(*metric.Counter, float64)) (stmtGen, error) {
	slot, err := sc.counter(name)
	if err != nil {
		return nil, err
	}
	v, err := sc.expr(x)
	if err != nil {
		return nil, err
	}
	num := numOf(v)
	return func(fr *frame) probe.Handler {
		c, val := fr.counters[slot], num(fr)
		return func(ev *probe.Event) { op(c, val(ev)) }
	}, nil
}

func (sc *scope) call(st *CallStmt) (stmtGen, error) {
	switch st.Fn {
	case "startWalltimer", "startWallTimer", "stopWalltimer", "stopWallTimer":
		if err := sc.timer(st, sc.wall, "walltimer"); err != nil {
			return nil, err
		}
		start := strings.HasPrefix(st.Fn, "start")
		return func(fr *frame) probe.Handler {
			t := fr.wall
			if start {
				return func(ev *probe.Event) { t.Start(ev.Time) }
			}
			return func(ev *probe.Event) { t.Stop(ev.Time) }
		}, nil
	case "startProcessTimer", "startProcesstimer", "stopProcessTimer", "stopProcesstimer":
		if err := sc.timer(st, sc.proc, "processtimer"); err != nil {
			return nil, err
		}
		start := strings.HasPrefix(st.Fn, "start")
		return func(fr *frame) probe.Handler {
			t := fr.proc
			if start {
				return func(ev *probe.Event) { t.Start(ev.CPUTime) }
			}
			return func(ev *probe.Event) { t.Stop(ev.CPUTime) }
		}, nil
	case "MPI_Type_size":
		// MPI_Type_size(datatype, &out): writes the size to counter out.
		if len(st.Args) != 1 || st.Out == "" {
			return nil, sc.errf("MPI_Type_size needs (datatype, &out)")
		}
		slot, err := sc.counter(st.Out)
		if err != nil {
			return nil, err
		}
		v, err := sc.expr(st.Args[0])
		if err != nil {
			return nil, err
		}
		size := fromDyn(v, 0, typeSize)
		return func(fr *frame) probe.Handler {
			c, sz := fr.counters[slot], size(fr)
			return func(ev *probe.Event) { c.Set(sz(ev)) }
		}, nil
	}
	return nil, sc.errf("unknown call %q", st.Fn)
}

// timer checks a timer call: one argument naming the declaration's timer of
// the call's type (have is "" when the metric has none).
func (sc *scope) timer(st *CallStmt, have, what string) error {
	var v *VarExpr
	if len(st.Args) == 1 && st.Out == "" {
		v, _ = st.Args[0].(*VarExpr)
	}
	if v == nil {
		return sc.errf("%s needs one timer name", st.Fn)
	}
	if have == "" || v.Name != have {
		return sc.errf("unknown %s %q", what, v.Name)
	}
	return nil
}

func (sc *scope) expr(x Expr) (value, error) {
	switch ex := x.(type) {
	case *NumExpr:
		return value{kind: kNum, num: constant(ex.V)}, nil
	case *StrExpr:
		return value{kind: kStr, str: constant(ex.V)}, nil
	case *VarExpr:
		slot, err := sc.counter(ex.Name)
		if err != nil {
			return value{}, err
		}
		return value{kind: kNum, num: func(fr *frame) fn[float64] {
			c := fr.counters[slot]
			return func(*probe.Event) float64 { return c.Value() }
		}}, nil
	case *ArgExpr:
		i := ex.Index
		arg := fn[any](func(ev *probe.Event) any { return ev.Arg(i) })
		return value{kind: kAny, dyn: func(*frame) fn[any] { return arg }}, nil
	case *ConstraintExpr:
		i := ex.Index
		return value{kind: kStr, str: func(fr *frame) fn[string] {
			s := fr.carg(i)
			return func(*probe.Event) string { return s }
		}}, nil
	case *CallExpr:
		return sc.builtin(ex)
	case *BinExpr:
		return sc.binary(ex)
	}
	return value{}, sc.errf("unknown expression %T", x)
}

func (sc *scope) builtin(c *CallExpr) (value, error) {
	switch c.Fn {
	case "DYNINSTWindow_FindUniqueId", "DYNINSTTWindow_FindUniqueId",
		"DYNINSTComm_FindId", "DYNINSTTagName", "MPI_Type_size":
	default:
		return value{}, sc.errf("unknown builtin %q", c.Fn)
	}
	if len(c.Args) != 1 {
		return value{}, sc.errf("%s takes one argument", c.Fn)
	}
	arg, err := sc.expr(c.Args[0])
	if err != nil {
		return value{}, err
	}
	switch c.Fn {
	case "DYNINSTComm_FindId":
		return value{kind: kStr, str: fromDyn(arg, "", commName)}, nil
	case "DYNINSTTagName":
		return value{kind: kStr, str: lift(numOf(arg), tagName)}, nil
	case "MPI_Type_size":
		return value{kind: kNum, num: fromDyn(arg, 0, typeSize)}, nil
	}
	// The runtime lookup from a window handle to the tool's N-M id.
	return value{kind: kStr, str: fromDyn(arg, "", windowID)}, nil
}

// fromDyn applies op to a dynamic ($arg) operand. A statically typed
// operand is never a window, communicator or datatype, so op would see
// neither and the result is the zero value.
func fromDyn[T any](v value, zero T, op func(any) T) gen[T] {
	if v.kind != kAny {
		return constant(zero)
	}
	return lift(v.dyn, op)
}

func windowID(v any) string {
	if w, ok := v.(*mpi.Win); ok && w != nil {
		return w.UniqueID()
	}
	return ""
}

func commName(v any) string {
	if cm, ok := v.(*mpi.Comm); ok && cm != nil {
		return "comm-" + strconv.Itoa(cm.ID())
	}
	return ""
}

func tagName(n float64) string { return "tag-" + strconv.Itoa(int(n)) }

func (sc *scope) binary(b *BinExpr) (value, error) {
	if b.Op == "==" || b.Op == "!=" {
		g, ok, err := sc.componentMatch(b)
		if err != nil {
			return value{}, err
		}
		if ok {
			if b.Op == "!=" {
				g = lift(g, not)
			}
			return value{kind: kBool, cond: g}, nil
		}
	}
	l, err := sc.expr(b.L)
	if err != nil {
		return value{}, err
	}
	r, err := sc.expr(b.R)
	if err != nil {
		return value{}, err
	}
	switch b.Op {
	case "==":
		return value{kind: kBool, cond: equal(l, r)}, nil
	case "!=":
		return value{kind: kBool, cond: lift(equal(l, r), not)}, nil
	}
	ln, rn := numOf(l), numOf(r)
	switch b.Op {
	case "+":
		return value{kind: kNum, num: lift2(ln, rn, func(a, b float64) float64 { return a + b })}, nil
	case "*":
		return value{kind: kNum, num: lift2(ln, rn, func(a, b float64) float64 { return a * b })}, nil
	case ">":
		return value{kind: kBool, cond: lift2(ln, rn, func(a, b float64) bool { return a > b })}, nil
	case "<":
		return value{kind: kBool, cond: lift2(ln, rn, func(a, b float64) bool { return a < b })}, nil
	case ">=":
		return value{kind: kBool, cond: lift2(ln, rn, func(a, b float64) bool { return a >= b })}, nil
	case "<=":
		return value{kind: kBool, cond: lift2(ln, rn, func(a, b float64) bool { return a <= b })}, nil
	}
	return value{}, sc.errf("unknown operator %q", b.Op)
}

func not(b bool) bool { return !b }

// componentMatch compiles `DYNINSTComm_FindId(x) == $constraint[k]` and
// `DYNINSTTagName(x) == $constraint[k]` (either way round) to an integer
// compare. The bound component is parsed once per instance, and only the
// exact text the builtin would produce can match: "comm-03" or "tag-+1"
// never does. ok is false for any other comparison.
func (sc *scope) componentMatch(b *BinExpr) (g gen[bool], ok bool, err error) {
	call, _ := b.L.(*CallExpr)
	ce, _ := b.R.(*ConstraintExpr)
	if call == nil || ce == nil {
		call, _ = b.R.(*CallExpr)
		ce, _ = b.L.(*ConstraintExpr)
	}
	if call == nil || ce == nil || len(call.Args) != 1 ||
		(call.Fn != "DYNINSTComm_FindId" && call.Fn != "DYNINSTTagName") {
		return nil, false, nil
	}
	arg, err := sc.expr(call.Args[0])
	if err != nil {
		return nil, false, err
	}
	k := ce.Index
	if call.Fn == "DYNINSTTagName" {
		num := numOf(arg)
		return func(fr *frame) fn[bool] {
			tag, canon := component(fr.carg(k), "tag-")
			if !canon {
				return never // DYNINSTTagName never yields anything else
			}
			x := num(fr)
			return func(ev *probe.Event) bool { return int(x(ev)) == tag }
		}, true, nil
	}
	return func(fr *frame) fn[bool] {
		s := fr.carg(k)
		id, canon := component(s, "comm-")
		switch {
		case arg.kind != kAny:
			// Not a communicator: DYNINSTComm_FindId yields "".
			return constant(s == "")(fr)
		case s == "":
			x := arg.dyn(fr)
			return func(ev *probe.Event) bool {
				cm, ok := x(ev).(*mpi.Comm)
				return !ok || cm == nil
			}
		case canon:
			x := arg.dyn(fr)
			return func(ev *probe.Event) bool {
				cm, ok := x(ev).(*mpi.Comm)
				return ok && cm != nil && cm.ID() == id
			}
		}
		return never
	}, true, nil
}

var never = fn[bool](func(*probe.Event) bool { return false })

// component parses a bound focus component of the form prefix+"%d",
// accepting only the exact text Sprintf would produce for its number.
func component(s, prefix string) (int, bool) {
	digits, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || strconv.Itoa(n) != digits {
		return 0, false
	}
	return n, true
}

// equal compiles MDL ==: two strings compare as strings, a string never
// equals a non-string, and anything else compares as a number.
func equal(l, r value) gen[bool] {
	if r.kind == kAny && l.kind != kAny {
		l, r = r, l
	}
	switch {
	case l.kind == kAny && r.kind == kAny:
		return lift2(l.dyn, r.dyn, equalVals)
	case l.kind == kAny && r.kind == kStr:
		return lift2(l.dyn, r.str, func(a any, s string) bool {
			as, ok := a.(string)
			return ok && as == s
		})
	case l.kind == kAny:
		return lift2(l.dyn, numOf(r), func(a any, n float64) bool {
			_, isStr := a.(string)
			return !isStr && asNum(a) == n
		})
	case l.kind == kStr && r.kind == kStr:
		return lift2(l.str, r.str, func(a, b string) bool { return a == b })
	case l.kind == kStr || r.kind == kStr:
		return constant(false)
	}
	return lift2(numOf(l), numOf(r), func(a, b float64) bool { return a == b })
}

// numOf coerces a compiled expression to a number, as MDL arithmetic does.
func numOf(v value) gen[float64] {
	switch v.kind {
	case kNum:
		return v.num
	case kBool:
		return lift(v.cond, func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		})
	case kAny:
		return lift(v.dyn, asNum)
	}
	return constant(0.0) // strings count as zero
}

// condOf coerces a compiled expression to an if condition.
func condOf(v value) gen[bool] {
	switch v.kind {
	case kBool:
		return v.cond
	case kNum:
		return lift(v.num, func(n float64) bool { return n != 0 })
	case kStr:
		return lift(v.str, func(s string) bool { return s != "" })
	}
	return lift(v.dyn, truthy)
}

func equalVals(l, r any) bool {
	if ls, ok := l.(string); ok {
		rs, ok2 := r.(string)
		return ok2 && ls == rs
	}
	if _, ok := r.(string); ok {
		return false
	}
	return asNum(l) == asNum(r)
}

func truthy(v any) bool {
	switch t := v.(type) {
	case bool:
		return t
	case float64:
		return t != 0
	case string:
		return t != ""
	case nil:
		return false
	default:
		return true
	}
}

// asNum coerces probe argument values to float64 for MDL arithmetic.
func asNum(v any) float64 {
	switch t := v.(type) {
	case float64:
		return t
	case int:
		return float64(t)
	case int64:
		return float64(t)
	case bool:
		if t {
			return 1
		}
		return 0
	case mpi.Datatype:
		return float64(int(t))
	default:
		return 0
	}
}

// typeSize is the MPI_Type_size builtin over a probe datatype argument.
func typeSize(v any) float64 {
	if dt, ok := v.(mpi.Datatype); ok {
		return float64(dt.Size())
	}
	return 0
}
