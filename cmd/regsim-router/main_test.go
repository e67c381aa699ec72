package main_test

import (
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
		{"default budget above max budget", []string{workers, "-addr", "127.0.0.1:0", "-n", "20000000"}, 2},
		{"bad worker URL", []string{"-workers", "ftp://host"}, 2},
		{"bad policy", []string{workers, "-policy", "random"}, 2},
		{"bad spill threshold", []string{workers, "-spill-threshold", "1.5"}, 2},
		{"NaN spill threshold", []string{workers, "-spill-threshold", "NaN"}, 2},
		{"bad dead-after", []string{workers, "-dead-after", "0"}, 2},
		{"timeouts inverted", []string{workers, "-default-timeout", "5m", "-max-timeout", "1m"}, 2},
		// cluster.New would take each of these for its default and serve.
		{"negative max budget", []string{workers, "-addr", "127.0.0.1:0", "-max-budget", "-1"}, 2},
		{"negative max sweep specs", []string{workers, "-addr", "127.0.0.1:0", "-max-sweep-specs", "-1"}, 2},
		{"negative max shard specs", []string{workers, "-addr", "127.0.0.1:0", "-max-shard-specs", "-1"}, 2},
		{"negative probe timeout", []string{workers, "-addr", "127.0.0.1:0", "-probe-timeout", "-1s"}, 2},
		{"negative default timeout", []string{workers, "-addr", "127.0.0.1:0", "-default-timeout", "-5s"}, 2},
		{"zero max timeout", []string{workers, "-addr", "127.0.0.1:0", "-max-timeout", "0"}, 2},
		{"negative drain timeout", []string{workers, "-addr", "127.0.0.1:0", "-drain-timeout", "-1s"}, 2},
		{"unusable listen address", []string{workers, "-addr", "256.256.256.256:0"}, 1},
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
