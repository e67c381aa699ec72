// Package cmdtest builds and runs the repository's command binaries so their
// process-level contracts (exit codes, stderr shape) can be tested like any
// other behaviour: usage errors exit 2, runtime failures exit 1, success
// exits 0.
package cmdtest

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// moduleRoot locates the repository root relative to this source file, so
// the helper works regardless of the test's working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cmdtest: cannot locate module root")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// Build compiles cmd/<name> into the test's temp dir and returns the binary
// path. Call it once per test function and share the path across subtests.
func Build(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cmdtest: build cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// Run executes the binary and returns its exit code plus combined output.
// Failures to even start the process fail the test.
func Run(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	if err == nil {
		return 0, out.String()
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode(), out.String()
	}
	t.Fatalf("cmdtest: run %s: %v", bin, err)
	return -1, ""
}

// RunWithin is Run for a daemon, which serves until it is stopped: it kills
// the process and fails the test if it is still running after d, so a flag
// check that lets a bad value through fails its case instead of hanging the
// test.
func RunWithin(t *testing.T, d time.Duration, bin string, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	var ee *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("still running after %v\n%s", d, out)
	case err != nil && !errors.As(err, &ee):
		t.Fatalf("cmdtest: run %s: %v", bin, err)
	case err != nil:
		return ee.ExitCode(), string(out)
	}
	return 0, string(out)
}
