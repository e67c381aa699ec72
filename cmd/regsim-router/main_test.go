package main_test

import (
	"context"
	"errors"
	"os/exec"
	"testing"
	"time"

	"regsim/internal/cmdtest"
)

// TestExitCodes pins the process contract: malformed flags are usage errors
// (exit 2) caught before the router binds anything; a well-formed flag the
// environment refuses (an unusable listen address) is a runtime error
// (exit 1). Routing behaviour itself is covered by the cluster package's
// tests — a router that serves forever has no exit code to assert here, so
// every case runs under a time bound: a flag check that lets a bad value
// through fails its case instead of hanging the test.
func TestExitCodes(t *testing.T) {
	bin := cmdtest.Build(t, "regsim-router")
	workers := "-workers=http://127.0.0.1:1"
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"positional arguments", []string{workers, "extra"}, 2},
		{"unknown flag", []string{workers, "-no-such-flag"}, 2},
		{"no workers no registration", []string{}, 2},
		{"bad budget", []string{workers, "-n", "0"}, 2},
		{"bad worker URL", []string{"-workers", "ftp://host"}, 2},
		{"bad policy", []string{workers, "-policy", "random"}, 2},
		{"bad spill threshold", []string{workers, "-spill-threshold", "1.5"}, 2},
		{"NaN spill threshold", []string{workers, "-spill-threshold", "NaN"}, 2},
		{"bad dead-after", []string{workers, "-dead-after", "0"}, 2},
		{"timeouts inverted", []string{workers, "-default-timeout", "5m", "-max-timeout", "1m"}, 2},
		{"unusable listen address", []string{workers, "-addr", "256.256.256.256:0"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := exitWithin(t, 10*time.Second, bin, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\n%s", code, tc.want, out)
			}
		})
	}
}

// exitWithin runs the router like cmdtest.Run, but kills it and fails the
// test if it is still running after d.
func exitWithin(t *testing.T, d time.Duration, bin string, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	var ee *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("still running after %v\n%s", d, out)
	case err != nil && !errors.As(err, &ee):
		t.Fatalf("run %s: %v", bin, err)
	case err != nil:
		return ee.ExitCode(), string(out)
	}
	return 0, string(out)
}
