package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for faultbench: with
// FAULTBENCH_RUN_MAIN set it runs main on its arguments, so the tests
// below see the command's exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("FAULTBENCH_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRepeatedPlanRefused: a plan listed twice would print two columns
// of the same name; faultbench exits nonzero naming -plans and the plan
// before any cell runs.
func TestRepeatedPlanRefused(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-algs", "mcs", "-plans", "none,none", "-seeds", "1")
	cmd.Env = append(os.Environ(), "FAULTBENCH_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	if code := cmd.ProcessState.ExitCode(); code == 0 || out.Len() != 0 ||
		!strings.Contains(errOut.String(), "-plans") || !strings.Contains(errOut.String(), `"none"`) {
		t.Fatalf("exit %d, stderr %q, stdout %q; want a nonzero exit naming -plans and \"none\", and no table",
			code, errOut.String(), out.String())
	}
}
