package lang

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"parallaft/internal/machine"
	"parallaft/internal/oskernel"
	"parallaft/internal/sim"
)

// run compiles and executes a paftlang program, returning stdout and the
// exit code.
func run(t *testing.T, src string) (string, int64) {
	t.Helper()
	prog, err := Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := machine.New(machine.AppleM2Like())
	k := oskernel.NewKernel(m.PageSize, 3)
	l := oskernel.NewLoader(k, m.PageSize, 3)
	e := sim.New(m, k, l)
	e.MaxInstr = 100_000_000
	res, err := e.RunBaseline(prog, m.BigCores()[0])
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.KilledBy != 0 {
		t.Fatalf("killed by %v", res.KilledBy)
	}
	return string(res.Stdout), res.ExitCode
}

func TestHelloWorld(t *testing.T) {
	out, code := run(t, `print("hello\n"); exit(7);`)
	if out != "hello\n" || code != 7 {
		t.Errorf("out=%q code=%d", out, code)
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]int64{
		"1 + 2 * 3":             7,
		"(1 + 2) * 3":           9,
		"10 - 3 - 2":            5, // left associative
		"17 / 5":                3,
		"17 % 5":                2,
		"-5 + 8":                3,
		"6 & 3":                 2,
		"6 | 3":                 7,
		"6 ^ 3":                 5,
		"1 << 6":                64,
		"64 >> 3":               8,
		"3 < 5":                 1,
		"5 < 3":                 0,
		"5 <= 5":                1,
		"5 >= 6":                0,
		"4 == 4":                1,
		"4 != 4":                0,
		"-3 < 2":                1, // signed comparison
		"1 && 2":                1,
		"1 && 0":                0,
		"0 || 5":                1,
		"!0":                    1,
		"!7":                    0,
		"1 + 2 == 3 && 4 < 5":   1,
		"(2 + 3) * (4 - 1) % 7": 1,
	}
	for src, want := range cases {
		out, _ := run(t, fmt.Sprintf("printnum(%s); exit(0);", src))
		if out != fmt.Sprintf("%d\n", want) {
			t.Errorf("%s = %q, want %d", src, strings.TrimSpace(out), want)
		}
	}
}

func TestPrintNumFormats(t *testing.T) {
	cases := map[string]string{
		"0":       "0\n",
		"42":      "42\n",
		"-42":     "-42\n",
		"1000000": "1000000\n",
		"-1":      "-1\n",
		"9 - 10":  "-1\n",
	}
	for src, want := range cases {
		out, _ := run(t, fmt.Sprintf("printnum(%s); exit(0);", src))
		if out != want {
			t.Errorf("printnum(%s) = %q, want %q", src, out, want)
		}
	}
}

func TestVariablesAndWhile(t *testing.T) {
	out, code := run(t, `
		var sum = 0;
		var i = 1;
		while (i <= 100) {
			sum = sum + i;
			i = i + 1;
		}
		printnum(sum);
		exit(sum & 255);
	`)
	if out != "5050\n" || code != 5050&255 {
		t.Errorf("out=%q code=%d", out, code)
	}
}

func TestArrays(t *testing.T) {
	out, _ := run(t, `
		var fib[32];
		fib[0] = 0;
		fib[1] = 1;
		var i = 2;
		while (i < 32) {
			fib[i] = fib[i-1] + fib[i-2];
			i = i + 1;
		}
		printnum(fib[31]);
		exit(0);
	`)
	if out != "1346269\n" {
		t.Errorf("fib(31) = %q", out)
	}
}

func TestIfElseChains(t *testing.T) {
	src := `
		var x = %d;
		if (x < 10) { print("small\n"); }
		else if (x < 100) { print("medium\n"); }
		else { print("large\n"); }
		exit(0);
	`
	for val, want := range map[int]string{5: "small\n", 50: "medium\n", 500: "large\n"} {
		out, _ := run(t, fmt.Sprintf(src, val))
		if out != want {
			t.Errorf("x=%d: %q, want %q", val, out, want)
		}
	}
}

func TestIntrinsics(t *testing.T) {
	out, _ := run(t, `
		var p = getpid();
		if (p > 0) { print("pid-ok\n"); }
		var t1 = gettime();
		var junk = 0;
		var i = 0;
		while (i < 1000) { junk = junk + i; i = i + 1; }
		var t2 = gettime();
		if (t2 >= t1) { print("time-ok\n"); }
		var r1 = random();
		var r2 = random();
		if (r1 != r2) { print("rand-ok\n"); }
		var c = coreid();
		if (c > 0) { print("core-ok\n"); }
		var ts = rdtsc();
		if (ts >= 0) { print("tsc-ok\n"); }
		exit(0);
	`)
	for _, want := range []string{"pid-ok", "time-ok", "rand-ok", "core-ok", "tsc-ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string
	}{
		{`x = 1;`, "undefined variable"},
		{`var a[4]; a = 1;`, "is an array"},
		{`var s = 0; s[0] = 1;`, "is a scalar"},
		{`var d = 1; var d = 2;`, "redeclared"},
		{`while (1) { `, "unterminated block"},
		{`print(42);`, "string literal"},
		{`var x = bogus();`, "unknown intrinsic"},
		{`exit(((((((((1)))))))));`, ""}, // deep parens are fine
		{`var x = 1 +;`, "expected an expression"},
		{`@`, "unexpected character"},
		{`var x = "unclosed`, "unterminated string"},
		{`var a[0];`, "positive literal"},
	}
	for _, c := range cases {
		_, err := Compile("err", c.src)
		if c.frag == "" {
			if err != nil {
				t.Errorf("%q should compile: %v", c.src, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%q compiled without error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q error %q missing %q", c.src, err, c.frag)
		}
	}
}

func TestDepthLimit(t *testing.T) {
	// 9 levels of right-nesting exhausts the 8-register stack
	expr := "1"
	for i := 0; i < 9; i++ {
		expr = "1 + (" + expr + ")"
	}
	_, err := Compile("deep", "exit("+expr+");")
	if err == nil || !strings.Contains(err.Error(), "too deeply nested") {
		t.Errorf("deep expression: %v", err)
	}
	// left-nesting is fine at any length (constant stack)
	long := strings.Repeat("1 + ", 100) + "1"
	if _, err := Compile("long", "exit("+long+");"); err != nil {
		t.Errorf("long left chain rejected: %v", err)
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Compile("pos", "var ok = 1;\nvar bad = nope()\n")
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.HasPrefix(err.Error(), "pos:2:") {
		t.Errorf("error %q does not start with the source's name and line 2", err)
	}
}

// TestCompiledExpressionsMatchGo is the compiler's property test: random
// expression trees evaluate identically in the guest and in Go.
func TestCompiledExpressionsMatchGo(t *testing.T) {
	type node struct {
		src string
		val int64
	}
	ops := []struct {
		text string
		f    func(a, b int64) int64
		ok   func(b int64) bool
	}{
		{"+", func(a, b int64) int64 { return a + b }, nil},
		{"-", func(a, b int64) int64 { return a - b }, nil},
		{"*", func(a, b int64) int64 { return a * b }, nil},
		{"/", func(a, b int64) int64 { return a / b }, func(b int64) bool { return b != 0 }},
		{"%", func(a, b int64) int64 { return a % b }, func(b int64) bool { return b != 0 }},
		{"&", func(a, b int64) int64 { return a & b }, nil},
		{"|", func(a, b int64) int64 { return a | b }, nil},
		{"^", func(a, b int64) int64 { return a ^ b }, nil},
	}
	rng := rand.New(rand.NewSource(5))
	var gen func(depth int) node
	gen = func(depth int) node {
		if depth == 0 || rng.Intn(3) == 0 {
			v := int64(rng.Intn(2001) - 1000)
			return node{fmt.Sprintf("(%d)", v), v}
		}
		for {
			op := ops[rng.Intn(len(ops))]
			a := gen(depth - 1)
			b := gen(depth - 1)
			if op.ok != nil && !op.ok(b.val) {
				continue
			}
			return node{fmt.Sprintf("(%s %s %s)", a.src, op.text, b.src), op.f(a.val, b.val)}
		}
	}
	for trial := 0; trial < 30; trial++ {
		n := gen(3)
		out, _ := run(t, fmt.Sprintf("printnum(%s); exit(0);", n.src))
		if out != fmt.Sprintf("%d\n", n.val) {
			t.Errorf("%s = %q, want %d", n.src, strings.TrimSpace(out), n.val)
		}
	}
}

// TestCompiledProgramUnderParallaft closes the loop: a compiled program
// runs under the protected runtime without false positives.
func TestCompiledProgramUnderParallaft(t *testing.T) {
	prog := MustCompile("compiled", `
		var table[2048];
		var i = 0;
		var acc = 0;
		while (i < 60000) {
			table[i & 2047] = table[i & 2047] + i;
			acc = acc + table[i & 2047];
			i = i + 1;
		}
		print("verified\n");
		exit(acc & 255);
	`)
	// imported lazily to avoid a cycle in small builds
	runProtected(t, prog)
}
