package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a source file into dir.
func write(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckDirFindsUndocumented: each undocumented exported form is
// reported; unexported and documented ones are not.
func TestCheckDirFindsUndocumented(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", `// Package fixture is documented.
package fixture

// Documented is fine.
func Documented() {}

func Naked() {}

func hidden() {}

type Bare struct{}

// Covered doc block.
const (
	CoveredA = 1
	CoveredB = 2
)

var Loose = 3

type priv struct{}

func (priv) Method() {}

// Typed is documented.
type Typed struct{}

func (Typed) Gap() {}
`)
	findings, err := checkDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"Naked", "type Bare", "Loose", "Typed.Gap"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing finding for %q in:\n%s", want, joined)
		}
	}
	for _, skip := range []string{"hidden", "Documented", "CoveredA", "priv.Method"} {
		if strings.Contains(joined, skip) {
			t.Errorf("false positive on %q in:\n%s", skip, joined)
		}
	}
	if len(findings) != 4 {
		t.Errorf("%d findings, want 4:\n%s", len(findings), joined)
	}
}

// TestCheckDirRequiresPackageComment: a package with no package doc on
// any file is itself a finding.
func TestCheckDirRequiresPackageComment(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", "package nodoc\n")
	findings, err := checkDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "no package comment") {
		t.Fatalf("findings = %v", findings)
	}
}

// TestCheckDirIgnoresTests: exported helpers in _test.go files are not
// API and must not be flagged.
func TestCheckDirIgnoresTests(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "a.go", "// Package fixture is documented.\npackage fixture\n")
	write(t, dir, "a_test.go", "package fixture\n\nfunc TestHelper() {}\n")
	findings, err := checkDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v", findings)
	}
}

// refs runs checkRefs on a doc.md with the given body inside a tree
// holding cmd/tool, internal/engine and one declared BenchmarkKept.
func refs(t *testing.T, body string) []string {
	t.Helper()
	root := t.TempDir()
	for _, dir := range []string{"cmd/tool", "internal/engine"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write(t, filepath.Join(root, "internal/engine"), "e_test.go",
		"package engine\n\nfunc BenchmarkKept(b *testing.B) {}\n")
	write(t, root, "doc.md", body)
	findings, err := checkRefs(root, filepath.Join(root, "doc.md"))
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// TestCheckRefsFindsStaleCitations: a deleted benchmark, binary or
// package cited in Markdown is reported with its line.
func TestCheckRefsFindsStaleCitations(t *testing.T) {
	findings := refs(t, "See `BenchmarkGone/hdd` and BenchmarkKept.\n"+
		"Run `go run ./cmd/gone`, not ./cmd/tool.\n"+
		"`knnpc/internal/removed` was imported by internal/engine/e_test.go.\n")
	joined := strings.Join(findings, "\n")
	for _, want := range []string{"doc.md:1: cites BenchmarkGone,", "doc.md:2: cites cmd/gone,", "doc.md:3: cites internal/removed,"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
	if len(findings) != 3 {
		t.Errorf("%d findings, want 3:\n%s", len(findings), joined)
	}
}

// TestCheckRefsCleanTwin: the same prose citing only what exists —
// and a foreign import path that merely contains /cmd/ — is clean.
func TestCheckRefsCleanTwin(t *testing.T) {
	findings := refs(t, "See `BenchmarkKept/hdd`.\n"+
		"Run `go run ./cmd/tool` or golang.org/x/vuln/cmd/govulncheck.\n"+
		"`knnpc/internal/engine` holds internal/engine/e_test.go; internal/{a,b} is a pattern.\n")
	if len(findings) != 0 {
		t.Fatalf("findings = %v", findings)
	}
}

// TestCheckTrajectory: a Makefile or workflow citing a trajectory file
// that is not committed, or a compare base other than the
// highest-numbered point (by number, not by name), is reported with
// its line; citing committed points and the latest base is clean.
func TestCheckTrajectory(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"BENCH_BASELINE.json", "BENCH_9.json", "BENCH_10.json"} {
		write(t, root, name, "{}")
	}
	check := func(body string) []string {
		t.Helper()
		write(t, root, "Makefile", body)
		findings, err := checkTrajectory(root, filepath.Join(root, "Makefile"))
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}
	findings := check("# e.g. make bench-compare BASE=BENCH_9.json\n" +
		"\tBASE=BENCH_31.json go run ./bench\n")
	joined := strings.Join(findings, "\n")
	for _, want := range []string{
		"Makefile:1: compare base BENCH_9.json is not the latest trajectory point BENCH_10.json",
		"Makefile:2: cites BENCH_31.json, which is not committed",
		"Makefile:2: compare base BENCH_31.json is not the latest",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
	if len(findings) != 3 {
		t.Errorf("%d findings, want 3:\n%s", len(findings), joined)
	}
	if findings := check("BASE=BENCH_10.json; see BENCH_9.json and BENCH_BASELINE.json\n"); len(findings) != 0 {
		t.Fatalf("findings = %v", findings)
	}
}
