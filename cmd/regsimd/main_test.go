package main_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"regsim/internal/cmdtest"
)

// TestExitCodes pins the process contract: malformed flags are usage errors
// (exit 2) caught before the daemon binds anything; a well-formed flag the
// environment refuses (an unusable listen address) is a runtime error
// (exit 1). The success path is covered by the server package's tests — a
// daemon that serves forever has no exit code to assert here, so every case
// runs under a time bound.
func TestExitCodes(t *testing.T) {
	bin := cmdtest.Build(t, "regsimd")
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"positional arguments", []string{"extra"}, 2},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"bad budget", []string{"-n", "0"}, 2},
		{"default budget above max budget", []string{"-no-cache", "-addr", "127.0.0.1:0", "-n", "20000000"}, 2},
		{"bad jobs", []string{"-jobs", "-1"}, 2},
		{"bad cache dir", []string{"-cache-dir", notADir}, 2},
		{"timeouts inverted", []string{"-no-cache", "-default-timeout", "5m", "-max-timeout", "1m"}, 2},
		{"negative slow threshold", []string{"-no-cache", "-slow", "-1s"}, 2},
		{"negative trace buffer", []string{"-no-cache", "-trace-buffer", "-1"}, 2},
		// server.New would take each of these for its default and serve.
		{"negative max budget", []string{"-no-cache", "-addr", "127.0.0.1:0", "-max-budget", "-1"}, 2},
		{"zero max budget", []string{"-no-cache", "-addr", "127.0.0.1:0", "-max-budget", "0"}, 2},
		{"negative max sweep specs", []string{"-no-cache", "-addr", "127.0.0.1:0", "-max-sweep-specs", "-1"}, 2},
		{"negative max inflight", []string{"-no-cache", "-addr", "127.0.0.1:0", "-max-inflight", "-1"}, 2},
		{"negative max queue", []string{"-no-cache", "-addr", "127.0.0.1:0", "-max-queue", "-1"}, 2},
		{"unusable listen address", []string{"-no-cache", "-addr", "256.256.256.256:0"}, 1},
		// The serving address is fine; the debug listener's is not. The
		// daemon must die loudly rather than serve without its debug surface.
		{"unusable debug address", []string{"-no-cache", "-addr", "127.0.0.1:0", "-debug-addr", "256.256.256.256:0"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := cmdtest.RunWithin(t, 10*time.Second, bin, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\n%s", code, tc.want, out)
			}
		})
	}
}
