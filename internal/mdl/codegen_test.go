package mdl

import (
	"strings"
	"testing"

	"pperf/internal/metric"
	"pperf/internal/mpi"
	"pperf/internal/probe"
)

// evalBoth compiles expr twice, as `if (expr) hit = 1;` and as
// `hit = expr;`, binds both to a frame with the given $constraint
// components, fires each once with args, and returns the condition and the
// number the expression coerces to.
func evalBoth(t *testing.T, expr string, args []any, cargs []string) (bool, float64) {
	t.Helper()
	run := func(src string) float64 {
		stmts, err := parseSnippet(src, 1)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		sc := &scope{counters: map[string]int{"hit": 0}}
		sn, err := sc.snippet(&ProbeSpec{Stmts: stmts})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		hit := &metric.Counter{}
		sn.bind(&frame{counters: []*metric.Counter{hit}, cargs: cargs}).h(&probe.Event{Args: args})
		return hit.Value()
	}
	return run("if ("+expr+") hit = 1;") == 1, run("hit = " + expr + ";")
}

func TestCompiledExprSemantics(t *testing.T) {
	comm0 := new(mpi.Comm) // a communicator with id 0
	var nilComm *mpi.Comm
	p2p := func(tag any, comm any) []any { return []any{nil, 4, mpi.Int, 1, tag, comm} }
	cases := []struct {
		expr  string
		args  []any
		cargs []string
		cond  bool
		num   float64
	}{
		// == and != across numbers, strings, bools and nil.
		{expr: `1 == 1`, cond: true, num: 1},
		{expr: `1 != 1`, cond: false, num: 0},
		{expr: `"a" == "a"`, cond: true, num: 1},
		{expr: `"a" == "b"`, cond: false, num: 0},
		{expr: `"a" != "b"`, cond: true, num: 1},
		{expr: `"" == 0`, cond: false, num: 0},
		{expr: `0 != ""`, cond: true, num: 1},
		{expr: `(1 == 1) == 1`, cond: true, num: 1},
		{expr: `(1 == 2) == 0`, cond: true, num: 1},
		{expr: `(1 == 1) == (2 == 2)`, cond: true, num: 1},
		{expr: `(1 == 1) == "x"`, cond: false, num: 0},
		{expr: `$arg[0] == 0`, args: []any{nil}, cond: true, num: 1},
		{expr: `$arg[0] == ""`, args: []any{nil}, cond: false, num: 0},
		{expr: `$arg[0] == $arg[1]`, args: []any{nil, 0}, cond: true, num: 1},
		{expr: `$arg[0] == $arg[1]`, args: []any{"s", "s"}, cond: true, num: 1},
		{expr: `$arg[0] == $arg[1]`, args: []any{"0", 0}, cond: false, num: 0},
		{expr: `$arg[0] == "x"`, args: []any{"x"}, cond: true, num: 1},
		{expr: `"x" == $arg[0]`, args: []any{"x"}, cond: true, num: 1},
		{expr: `$arg[0] == 0`, args: []any{"x"}, cond: false, num: 0},
		{expr: `$arg[0] != 0`, args: []any{"x"}, cond: true, num: 1},
		{expr: `$arg[0] == 1`, args: []any{true}, cond: true, num: 1},
		{expr: `$arg[0] == (1 == 1)`, args: []any{int64(1)}, cond: true, num: 1},
		{expr: `$arg[0] == 7`, args: []any{mpi.Datatype(7)}, cond: true, num: 1},
		{expr: `$arg[0] == 0`, args: []any{comm0}, cond: true, num: 1},
		// Truthiness and numeric coercion of dynamic values.
		{expr: `$arg[0]`, args: []any{0}, cond: true, num: 0},
		{expr: `$arg[0]`, args: []any{0.0}, cond: false, num: 0},
		{expr: `$arg[0]`, args: []any{""}, cond: false, num: 0},
		{expr: `$arg[0]`, args: []any{"x"}, cond: true, num: 0},
		{expr: `$arg[0]`, args: []any{nil}, cond: false, num: 0},
		{expr: `$arg[0]`, args: []any{false}, cond: false, num: 0},
		{expr: `$arg[0]`, args: []any{comm0}, cond: true, num: 0},
		{expr: `"x"`, cond: true, num: 0},
		{expr: `""`, cond: false, num: 0},
		{expr: `"x" + 2`, cond: true, num: 2},
		{expr: `$arg[1] * 2 + 1`, args: []any{nil, 3}, cond: true, num: 7},
		{expr: `$arg[1] * 2 + 1 > 6`, args: []any{nil, 3}, cond: true, num: 1},
		{expr: `$arg[1] <= 2`, args: []any{nil, 3}, cond: false, num: 0},
		{expr: `$arg[1] >= 3`, args: []any{nil, int64(3)}, cond: true, num: 1},
		{expr: `$arg[1] < 1`, args: []any{nil, 0.5}, cond: true, num: 1},
		// $arg and $constraint out of range.
		{expr: `$arg[9] == 0`, args: []any{1}, cond: true, num: 1},
		{expr: `$arg[9]`, args: []any{1}, cond: false, num: 0},
		{expr: `$constraint[3] == ""`, cargs: []string{"comm-1"}, cond: true, num: 1},
		{expr: `$constraint[0] == "comm-1"`, cargs: []string{"comm-1"}, cond: true, num: 1},
		{expr: `$constraint[0]`, cond: false, num: 0},
		// MPI_Type_size on datatypes and on anything else.
		{expr: `MPI_Type_size($arg[0])`, args: []any{mpi.Double}, cond: true, num: 8},
		{expr: `MPI_Type_size($arg[0])`, args: []any{8}, cond: false, num: 0},
		{expr: `MPI_Type_size($arg[0])`, args: []any{"MPI_DOUBLE"}, cond: false, num: 0},
		{expr: `MPI_Type_size(3) == 0`, cond: true, num: 1},
		// Communicator ids against a bound component: only the exact
		// "comm-%d" text matches.
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"comm-0"}, cond: true, num: 1},
		{expr: `$constraint[0] == DYNINSTComm_FindId($arg[5])`, args: p2p(7, comm0), cargs: []string{"comm-0"}, cond: true, num: 1},
		{expr: `DYNINSTComm_FindId($arg[5]) != $constraint[0]`, args: p2p(7, comm0), cargs: []string{"comm-0"}, cond: false, num: 0},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"comm-1"}, cond: false, num: 0},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"comm-00"}, cond: false, num: 0},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"comm-+0"}, cond: false, num: 0},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"comm--0"}, cond: false, num: 0},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"0"}, cond: false, num: 0},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{""}, cond: false, num: 0},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, nil), cargs: []string{""}, cond: true, num: 1},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, nilComm), cargs: []string{"comm-0"}, cond: false, num: 0},
		{expr: `DYNINSTComm_FindId($arg[5]) == $constraint[0]`, args: p2p(7, 0), cargs: nil, cond: true, num: 1},
		{expr: `DYNINSTComm_FindId($arg[5]) != $constraint[1]`, args: p2p(7, comm0), cargs: []string{"comm-0"}, cond: true, num: 1},
		{expr: `DYNINSTComm_FindId(0) == $constraint[0]`, cargs: []string{""}, cond: true, num: 1},
		{expr: `DYNINSTComm_FindId($arg[5]) == "comm-0"`, args: p2p(7, comm0), cond: true, num: 1},
		{expr: `DYNINSTComm_FindId($arg[5])`, args: p2p(7, comm0), cond: true, num: 0},
		// Tags likewise: only the exact "tag-%d" text matches.
		{expr: `DYNINSTTagName($arg[4]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"tag-7"}, cond: true, num: 1},
		{expr: `DYNINSTTagName($arg[4]) == $constraint[0]`, args: p2p(7.9, comm0), cargs: []string{"tag-7"}, cond: true, num: 1},
		{expr: `DYNINSTTagName($arg[4]) == $constraint[0]`, args: p2p(-1, comm0), cargs: []string{"tag--1"}, cond: true, num: 1},
		{expr: `DYNINSTTagName($arg[4]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"tag-07"}, cond: false, num: 0},
		{expr: `DYNINSTTagName($arg[4]) == $constraint[0]`, args: p2p(1, comm0), cargs: []string{"tag-+1"}, cond: false, num: 0},
		{expr: `DYNINSTTagName($arg[4]) == $constraint[0]`, args: p2p(7, comm0), cargs: []string{"tag-8"}, cond: false, num: 0},
		{expr: `DYNINSTTagName($arg[4]) == $constraint[0]`, args: p2p(nil, comm0), cargs: []string{"tag-0"}, cond: true, num: 1},
		{expr: `DYNINSTTagName($arg[4]) == $constraint[0]`, args: p2p(7, comm0), cargs: nil, cond: false, num: 0},
		{expr: `DYNINSTTagName($arg[4]) != $constraint[0]`, args: p2p(7, comm0), cargs: []string{"tag-07"}, cond: true, num: 1},
		{expr: `DYNINSTTagName(3) == $constraint[0]`, cargs: []string{"tag-3"}, cond: true, num: 1},
		{expr: `DYNINSTTagName($arg[4]) == "tag-7"`, args: p2p(7, comm0), cond: true, num: 1},
		// Windows compare by the tool's N-M id; anything else has none.
		{expr: `DYNINSTWindow_FindUniqueId($arg[0]) == ""`, args: []any{comm0}, cond: true, num: 1},
		{expr: `DYNINSTWindow_FindUniqueId($arg[0]) == $constraint[0]`, args: []any{nil}, cargs: []string{"0-1"}, cond: false, num: 0},
	}
	for _, c := range cases {
		cond, num := evalBoth(t, c.expr, c.args, c.cargs)
		if cond != c.cond || num != c.num {
			t.Errorf("%s with args %v, $constraint %q: cond %v num %v, want cond %v num %v",
				c.expr, c.args, c.cargs, cond, num, c.cond, c.num)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	// One bad snippet per compile-time check. Each error names its line.
	wrap := func(base, decls, body string) string {
		return `resourceList fns is procedure { "MPI_Send" };
metric m {
    name "m";` + decls + `
    base is ` + base + ` {
        foreach func in fns {
            append preinsn func.entry (* ` + body + ` *)
        }
    }
}`
	}
	cases := []struct {
		name, src, want string
	}{
		{"unknown counter", wrap("counter", "", "ghost++;"), `mdl:6: unknown counter "ghost"`},
		{"unknown counter in expression", wrap("counter", "", "m += ghost;"), `unknown counter "ghost"`},
		{"unknown MPI_Type_size output", wrap("counter", "", "MPI_Type_size($arg[2], &ghost);"), `unknown counter "ghost"`},
		{"timer used as counter", wrap("walltimer", "", "m++;"), `unknown counter "m"`},
		{"unknown walltimer", wrap("walltimer", "", "startWalltimer(ghost);"), `mdl:6: unknown walltimer "ghost"`},
		{"walltimer on counter metric", wrap("counter", "", "stopWalltimer(m);"), `unknown walltimer "m"`},
		{"unknown processtimer", wrap("walltimer", "", "startProcessTimer(m);"), `mdl:6: unknown processtimer "m"`},
		{"unknown call", wrap("counter", "", "resetCounter(m);"), `mdl:6: unknown call "resetCounter"`},
		{"unknown builtin", wrap("counter", "", "m += DYNINSTGhost($arg[0]);"), `mdl:6: unknown builtin "DYNINSTGhost"`},
		{"builtin arity", wrap("counter", "", "if (DYNINSTTagName() == 1) m++;"), `DYNINSTTagName takes one argument`},
		{"MPI_Type_size without output", wrap("counter", "counter b;", "MPI_Type_size($arg[2]);"), `mdl:6: MPI_Type_size needs (datatype, &out)`},
		{"MPI_Type_size with two arguments", wrap("counter", "counter b;", "MPI_Type_size($arg[2], $arg[1], &b);"), `MPI_Type_size needs (datatype, &out)`},
		{"timer call without argument", wrap("walltimer", "", "startWalltimer();"), `mdl:6: startWalltimer needs one timer name`},
		{"timer call with two arguments", wrap("walltimer", "", "stopWalltimer(m, m);"), `stopWalltimer needs one timer name`},
		{"timer call with an expression", wrap("processtimer", "", "startProcessTimer($arg[0]);"), `startProcessTimer needs one timer name`},
		{"unknown base kind", wrap("gauge", "", "m++;"), `mdl:2: metric m: unknown base kind "gauge"`},
		{"duplicate counter", wrap("counter", "counter m;", "m++;"), `mdl:2: metric m: duplicate counter m`},
		{"constraint names another counter", `resourceList fns is procedure { "MPI_Send" };
constraint c /SyncObject/Message is counter {
    foreach func in fns {
        prepend preinsn func.entry (* other = 1; *)
    }
}`, `mdl:4: unknown counter "other"`},
	}
	for _, c := range cases {
		_, err := CompileSource(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
