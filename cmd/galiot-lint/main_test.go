package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// runLint invokes the driver seam and captures its streams.
func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = lintMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListRules(t *testing.T) {
	code, out, _ := runLint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	// Exactly the rules that have caught something, plus goleak and the
	// obsnames vocabulary gate: adding or dropping a rule must edit this.
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			names = append(names, f[0])
		}
	}
	want := "errdrop floateq goleak hotloopalloc nondeterminism obsnames unguardedstats"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list rules = %q, want %q", got, want)
	}
}

func TestUnknownRuleIsUsageError(t *testing.T) {
	code, _, errOut := runLint(t, "-rules", "nosuchrule")
	if code != 2 {
		t.Fatalf("unknown rule exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "unknown rule") {
		t.Fatalf("stderr = %q, want unknown-rule message", errOut)
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	code, _, _ := runLint(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestJSONEmptyFindingsIsArray(t *testing.T) {
	// This package is clean under floateq, so the encoder must still emit
	// a JSON array — tools consuming the artifact choke on null.
	code, out, errOut := runLint(t, "-json", "-rules", "floateq", "./cmd/galiot-lint")
	if code != 0 {
		t.Fatalf("exited %d, stderr:\n%s", code, errOut)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Fatalf("empty findings encoded as %q, want []", strings.TrimSpace(out))
	}
}

// chdirTemp moves the test into a throwaway module so findModuleRoot
// resolves to it; restored on cleanup. Tests using it must not be parallel.
func chdirTemp(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
	return root
}

const dirtyModule = `module scratch.test

go 1.22
`

// dirtySrc trips errdrop twice in one file (descending line order in the
// source map) so sorting is observable, and carries one live and one stale
// suppression for the audit tests.
var dirtyFiles = map[string]string{
	"go.mod": dirtyModule,
	"a/a.go": `package a

import "os"

func Two() {
	os.Remove("second")
}

func One() {
	os.Remove("first")
}

func ignored() {
	//lint:ignore errdrop the remove error has no consumer here
	os.Remove("covered")
}
`,
	"b/b.go": `package b

//lint:ignore errdrop nothing on the next line can fail
func Quiet() int { return 1 }
`,
}

func TestFindingsSortedAndGateExitCode(t *testing.T) {
	chdirTemp(t, dirtyFiles)
	code, out, errOut := runLint(t, "-rules", "errdrop", "./...")
	if code != 1 {
		t.Fatalf("exited %d with findings present, want 1\nstdout:%s\nstderr:%s", code, out, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(lines), out)
	}
	// Both findings are in a/a.go; Two() precedes One() in the file, so
	// line order must win over function-name or discovery order.
	if !strings.HasPrefix(lines[0], filepath.Join("a", "a.go")+":6:") ||
		!strings.HasPrefix(lines[1], filepath.Join("a", "a.go")+":10:") {
		t.Fatalf("findings not sorted by (file, line):\n%s", out)
	}
}

func TestJSONFindingsSorted(t *testing.T) {
	chdirTemp(t, dirtyFiles)
	code, out, _ := runLint(t, "-json", "-rules", "errdrop", "./...")
	if code != 1 {
		t.Fatalf("exited %d, want 1", code)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(diags) != 2 || diags[0].Pos.Line >= diags[1].Pos.Line {
		t.Fatalf("JSON findings missing or unsorted: %+v", diags)
	}
}

func TestAuditIgnoresReportsOnlyStale(t *testing.T) {
	chdirTemp(t, dirtyFiles)
	code, out, errOut := runLint(t, "-audit-ignores", "./...")
	if code != 1 {
		t.Fatalf("exited %d with a stale ignore present, want 1\nstderr:%s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], filepath.Join("b", "b.go")) ||
		!strings.Contains(lines[0], "stale //lint:ignore errdrop") {
		t.Fatalf("audit output = %q, want exactly the b/b.go directive", out)
	}
	if strings.Contains(out, filepath.Join("a", "a.go")) {
		t.Fatalf("audit reported the exercised directive in a/a.go:\n%s", out)
	}
}

func TestAuditIgnoresJSON(t *testing.T) {
	chdirTemp(t, map[string]string{
		"go.mod": dirtyModule,
		"c/c.go": "package c\n\nfunc Clean() {}\n",
	})
	code, out, _ := runLint(t, "-audit-ignores", "-json", "./...")
	if code != 0 {
		t.Fatalf("clean audit exited %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Fatalf("empty audit encoded as %q, want []", strings.TrimSpace(out))
	}
}
