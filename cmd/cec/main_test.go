package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when runCEC re-executes the test
// binary, so the tests observe the exit status a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("CEC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCEC runs cec with args in a child process and returns its exit
// status and output.
func runCEC(t *testing.T, args ...string) (status int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CEC_RUN_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatalf("cec %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errOut.String()
}

// TestExitStatus: 0 for equivalent circuits, 1 for different ones, and
// 2 for a usage error or a file that is missing, malformed or latched.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	file := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	and := file("and.blif", ".model a\n.inputs x y\n.outputs f\n.names x y f\n11 1\n.end\n")
	and2 := file("and2.blif", ".model b\n.inputs y x\n.outputs f\n.names x y t\n11 1\n.names t f\n1 1\n.end\n")
	or := file("or.blif", ".model c\n.inputs x y\n.outputs f\n.names x y f\n1- 1\n-1 1\n.end\n")
	bad := file("bad.blif", ".model d\n.inputs x y\n.outputs f\n.names x y f\n111 1\n.end\n")
	latched := file("seq.blif", ".model seq\n.inputs x\n.outputs y\n.latch ns q 1\n.names x q ns\n11 1\n.names q y\n1 1\n.end\n")
	missing := filepath.Join(dir, "missing.blif")

	for _, c := range []struct {
		name   string
		args   []string
		status int
		want   string // in stdout for status 0 and 1, in stderr for 2
	}{
		{"equal", []string{and, and2}, 0, "EQUIVALENT"},
		{"different", []string{and, or}, 1, `DIFFERENT at output "f"`},
		{"usage", []string{and}, 2, "usage"},
		{"missing", []string{and, missing}, 2, "missing.blif"},
		{"malformed", []string{and, bad}, 2, "bad.blif"},
		{"latched", []string{latched, and}, 2, "combinational models only"},
	} {
		status, stdout, stderr := runCEC(t, c.args...)
		if status != c.status {
			t.Errorf("%s: exit status %d, want %d (stdout %q, stderr %q)", c.name, status, c.status, stdout, stderr)
			continue
		}
		out := stdout
		if c.status == 2 {
			out = stderr
		}
		if !strings.Contains(out, c.want) {
			t.Errorf("%s: output %q does not contain %q", c.name, out, c.want)
		}
	}
}
