package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeFile writes content to a fresh file under the test's temp dir.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// raw renders `go test -bench` text lines, one "name ns/op" pair each.
func raw(lines ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(lines); i += 2 {
		b.WriteString(lines[i] + "   \t       1\t" + lines[i+1] + " ns/op\n")
	}
	return b.String()
}

func runGuard(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// TestParseReassemblesTest2JSONFragments: test2json emits the benchmark
// name and its timings as separate output events; parse must join them
// at the newline and strip the -N CPU suffix.
func TestParseReassemblesTest2JSONFragments(t *testing.T) {
	stream := `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Output":"BenchmarkX/leg-8         \t"}
{"Action":"output","Package":"repro","Output":"       1\t 12345 ns/op\t  78.00 pcg-iters\n"}
{"Action":"output","Package":"repro","Output":"PASS\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkY-2 \t"}
{"Action":"output","Package":"repro","Output":"       3\t 500.5 ns/op"}
`
	got, err := parse(writeFile(t, "s.json", stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["BenchmarkX/leg"] != 12345 || got["BenchmarkY"] != 500.5 {
		t.Fatalf("parse = %v, want BenchmarkX/leg=12345 and BenchmarkY=500.5 (unterminated tail)", got)
	}
}

// TestCPUSuffixStripped: runs from machines with different core counts
// compare under the same name.
func TestCPUSuffixStripped(t *testing.T) {
	old := writeFile(t, "old.txt", raw("BenchmarkX/a-8", "100"))
	cur := writeFile(t, "new.txt", raw("BenchmarkX/a-2", "110"))
	out, err := runGuard(t, "-old", old, "-new", cur, "-gate", "BenchmarkX/a$=1.25")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "ok    BenchmarkX/a ") {
		t.Fatalf("suffixed names did not pair up:\n%s", out)
	}
}

// TestStrictestGateWins: a benchmark matching two gates is held to the
// smaller limit.
func TestStrictestGateWins(t *testing.T) {
	old := writeFile(t, "old.txt", raw("BenchmarkX/a", "100"))
	cur := writeFile(t, "new.txt", raw("BenchmarkX/a", "130"))
	if out, err := runGuard(t, "-old", old, "-new", cur, "-gate", "BenchmarkX=1.40"); err != nil {
		t.Fatalf("1.30x failed a 1.40 gate: %v\n%s", err, out)
	}
	out, err := runGuard(t, "-old", old, "-new", cur, "-gate", "BenchmarkX=1.40", "-gate", "X/a=1.25")
	if err == nil || !strings.Contains(out, "limit 1.25x") {
		t.Fatalf("1.30x passed under a 1.25 gate: err=%v\n%s", err, out)
	}
}

// TestOverLimitFails: a gated regression past its limit fails the run
// and is marked FAIL; ungated benchmarks never fail it.
func TestOverLimitFails(t *testing.T) {
	old := writeFile(t, "old.txt", raw("BenchmarkX", "100", "BenchmarkY", "100"))
	cur := writeFile(t, "new.txt", raw("BenchmarkX", "200", "BenchmarkY", "900"))
	out, err := runGuard(t, "-old", old, "-new", cur, "-gate", "BenchmarkX=1.5")
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("2x slowdown passed a 1.5 gate: err=%v\n%s", err, out)
	}
	if !strings.Contains(out, "FAIL  BenchmarkX ") || !strings.Contains(out, "ok    BenchmarkY ") || !strings.Contains(out, "ungated") {
		t.Fatalf("report rows wrong:\n%s", out)
	}
}

// TestVacuousGateFails: a gate that matches no benchmark present in
// both files — a deleted or renamed leg — fails instead of passing
// silently.
func TestVacuousGateFails(t *testing.T) {
	old := writeFile(t, "old.txt", raw("BenchmarkX/gone", "100", "BenchmarkX/kept", "100"))
	cur := writeFile(t, "new.txt", raw("BenchmarkX/kept", "100", "BenchmarkX/added", "100"))
	for _, gate := range []string{"BenchmarkX/gone=1.40", "BenchmarkX/added=1.40", "BenchmarkZ=1.40"} {
		out, err := runGuard(t, "-old", old, "-new", cur, "-gate", "BenchmarkX/kept=1.40", "-gate", gate)
		if err == nil || !strings.Contains(err.Error(), "matches no benchmark") {
			t.Fatalf("gate %s gates nothing but passed: err=%v\n%s", gate, err, out)
		}
	}
	if _, err := runGuard(t, "-old", old, "-new", cur, "-bench", "BenchmarkZ"); err == nil {
		t.Fatal("legacy -bench gate matching nothing passed")
	}
}

// TestNewAndGoneReportWithoutFailing: benchmarks present in only one
// file are listed but do not fail the run.
func TestNewAndGoneReportWithoutFailing(t *testing.T) {
	old := writeFile(t, "old.txt", raw("BenchmarkX/gone", "100", "BenchmarkX/kept", "100"))
	cur := writeFile(t, "new.txt", raw("BenchmarkX/kept", "100", "BenchmarkX/added", "999"))
	out, err := runGuard(t, "-old", old, "-new", cur, "-gate", "BenchmarkX=1.10")
	if err != nil {
		t.Fatalf("NEW/GONE rows failed the run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "NEW   BenchmarkX/added") || !strings.Contains(out, "GONE  BenchmarkX/gone") {
		t.Fatalf("NEW/GONE rows missing:\n%s", out)
	}
}

// TestBadInputs: missing files and malformed gates are errors, not
// panics or exits.
func TestBadInputs(t *testing.T) {
	empty := writeFile(t, "empty.txt", "PASS\n")
	some := writeFile(t, "some.txt", raw("BenchmarkX", "1"))
	for name, args := range map[string][]string{
		"no paths":   {},
		"bad gate":   {"-old", some, "-new", some, "-gate", "nofactor"},
		"zero limit": {"-old", some, "-new", some, "-gate", "X=0"},
		"empty old":  {"-old", empty, "-new", some},
		"missing":    {"-old", filepath.Join(t.TempDir(), "absent"), "-new", some},
	} {
		if _, err := runGuard(t, args...); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
