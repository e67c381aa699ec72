package main_test

import (
	"strings"
	"testing"

	"regsim/internal/cmdtest"
)

// TestExitCodes pins the process contract: malformed flags are usage errors
// (exit 2) that print no part of the table, success is 0. rftime has no
// runtime failure mode — the timing model is pure arithmetic.
func TestExitCodes(t *testing.T) {
	bin := cmdtest.Build(t, "rftime")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"positional arguments", []string{"extra"}, 2},
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"bad regs entry", []string{"-regs", "32,zero,64"}, 2},
		{"zero regs", []string{"-regs", "0"}, 2},
		{"negative ports", []string{"-read", "-1", "-write", "4"}, 2},
		{"read without write", []string{"-read", "8"}, 2},
		{"bad width", []string{"-width", "6"}, 2},
		{"success", nil, 0},
		{"success explicit ports", []string{"-read", "8", "-write", "4", "-regs", "64,128"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := cmdtest.Run(t, bin, tc.args...)
			if code != tc.want {
				t.Fatalf("exit %d, want %d\n%s", code, tc.want, out)
			}
			if code == 2 && strings.Contains(out, "register file timing") {
				t.Errorf("usage error printed part of the table:\n%s", out)
			}
		})
	}
}
