package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for loadbench: with
// LOADBENCH_RUN_MAIN set it runs main on its arguments, so the tests
// below see the command's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("LOADBENCH_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// loadbench runs the command with args and returns its stdout, stderr
// and exit status.
func loadbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LOADBENCH_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestListEntriesRefusedUpFront: a repeated pattern, a rate repeated
// under another spelling (cell names print rates with %g), and an
// unknown or repeated algorithm each exit nonzero naming the flag and
// the entry, before any cell runs: no Summary line, no report file.
func TestListEntriesRefusedUpFront(t *testing.T) {
	for _, c := range []struct {
		name       string
		args       []string
		flag, what string
	}{
		{"rate-respelled", []string{"-patterns", "poisson", "-rates", "100,1e2", "-algs", "blocking"}, "-rates", `"1e2"`},
		{"pattern-repeated", []string{"-patterns", "poisson,poisson", "-rates", "100", "-algs", "blocking"}, "-patterns", `"poisson"`},
		{"alg-unknown", []string{"-patterns", "poisson", "-rates", "100", "-algs", "blocking,bogus"}, "-algs", `"bogus"`},
		{"alg-repeated", []string{"-patterns", "poisson", "-rates", "100", "-algs", "blocking,blocking"}, "-algs", `"blocking"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			report := filepath.Join(t.TempDir(), "r.json")
			args := append(c.args, "-duration", "400000", "-report", report)
			stdout, stderr, code := loadbench(t, args...)
			if code == 0 || stdout != "" || !strings.Contains(stderr, c.flag) || !strings.Contains(stderr, c.what) {
				t.Errorf("loadbench %s: exit %d, stderr %q, stdout %q; want a nonzero exit naming %s and %s, and no cell output",
					strings.Join(args, " "), code, stderr, stdout, c.flag, c.what)
			}
			if _, err := os.Stat(report); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("loadbench %s wrote a report (stat: %v)", strings.Join(args, " "), err)
			}
		})
	}
}
