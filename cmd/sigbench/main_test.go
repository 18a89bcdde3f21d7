package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// sigbench runs the CLI in-process and returns its exit code and streams.
func sigbench(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestPaperCommands: every paper command runs at a tiny scale, exits 0 and
// prints something; fig1/fig3 write their mosaic where -out says.
func TestPaperCommands(t *testing.T) {
	for _, c := range paper {
		t.Run(c.name, func(t *testing.T) {
			args := []string{c.name}
			if c.flags != "" {
				args = append(args, "-scale", "0.04")
			}
			pgm := filepath.Join(t.TempDir(), c.name+".pgm")
			if c.name == "fig1" || c.name == "fig3" {
				args = append(args, "-out", pgm)
			}
			code, stdout, stderr := sigbench(args...)
			if code != 0 || stdout == "" {
				t.Fatalf("sigbench %v: exit %d, %d bytes of output\n%s", args, code, len(stdout), stderr)
			}
			if _, err := os.Stat(pgm); (err == nil) != (c.name == "fig1" || c.name == "fig3") {
				t.Errorf("sigbench %v: mosaic at -out: %v", args, err)
			}
		})
	}
}

// TestStudyCommands: every entry of harness.Studies is a command that takes
// no flags and prints its golden byte for byte.
func TestStudyCommands(t *testing.T) {
	for _, s := range harness.Studies {
		t.Run(s.Name, func(t *testing.T) {
			code, stdout, stderr := sigbench(s.Name)
			if code != 0 {
				t.Fatalf("sigbench %s: exit %d\n%s", s.Name, code, stderr)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "internal", "harness", "testdata", s.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("sigbench %s differs from its golden (%d vs %d bytes)", s.Name, len(stdout), len(want))
			}
		})
	}
}

// TestUsageErrors: an unknown command, a flag the command does not read, a
// -scale outside (0,1] and a stray argument all exit 2 with the complaint on
// stderr and nothing on stdout — not exit 0 having ignored it.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nope"},
		{"multicore"},
		{"slo", "-scale", "0.5"},
		{"serve_4shards"},
		{"table1", "-backend", "kmeans"},
		{"serve", "-shards", "4"},
		{"adaptive", "-reps", "3"},
		{"fig4"},
		{"fig2", "-reps", "3"},
		{"all", "-reps", "3"},
		{"ablate", "-reps", "3"},
		{"fig2", "-scale", "7"},
		{"table2", "-scale", "0"},
		{"fig2", "-out", "x.pgm"},
		{"all", "-out", "x.pgm"},
		{"table1", "extra"},
		{"pace", "extra"},
		{"fig2", "-scale", "0.04", "Sobel"},
	} {
		code, stdout, stderr := sigbench(args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("sigbench %v: exit %d, stdout %q, stderr %q; want exit 2 and only stderr", args, code, stdout, stderr)
		}
	}
	if code, _, stderr := sigbench("fig2", "-scale", "0.04", "-bench", "NoSuchBench"); code != 1 || stderr == "" {
		t.Errorf("a failing command: exit %d, stderr %q; want exit 1 and the error", code, stderr)
	}
}

// TestAllFollowsRegistry: `all` is the paper commands then every study in
// registry order, one blank line between consecutive commands and none
// doubled — the sharded serve scenario and the ablate/paper seam included —
// and at one worker it prints the same bytes on every run.
func TestAllFollowsRegistry(t *testing.T) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// `all` writes fig1.pgm and fig3.pgm into the working directory.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(dir)
	args := []string{"all", "-scale", "0.04", "-workers", "1"}
	code, stdout, stderr := sigbench(args...)
	if code != 0 {
		t.Fatalf("sigbench all: exit %d\n%s", code, stderr)
	}
	if _, again, _ := sigbench(args...); again != stdout {
		t.Errorf("sigbench %v printed different bytes on a second run", args)
	}
	var head, tail bytes.Buffer
	harness.Table1(&head)
	head.WriteString("\nwrote fig1.pgm")
	for _, s := range harness.Studies {
		tail.WriteByte('\n')
		if err := s.Run(&tail); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.HasPrefix(stdout, head.String()) {
		t.Errorf("`all` does not open with table1, a blank line, fig1:\n%.400s", stdout)
	}
	paperPart, ok := strings.CutSuffix(stdout, tail.String())
	if !ok {
		t.Fatalf("`all` does not end with every study in registry order, a blank line before each")
	}
	if !strings.HasSuffix(paperPart, "\n") || strings.HasSuffix(paperPart, "\n\n") {
		t.Errorf("the paper commands end %q, want exactly one newline before the studies' separator", paperPart[max(0, len(paperPart)-20):])
	}
}
