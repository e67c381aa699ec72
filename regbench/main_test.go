package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagContract pins the usage errors: each exits 2 before measuring.
func TestFlagContract(t *testing.T) {
	dir := t.TempDir()
	malformed := filepath.Join(dir, "malformed.jsonl")
	if err := os.WriteFile(malformed, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]string{
		"unknown workload":         {"--workload", "fig9"},
		"no workload":              {},
		"zero seconds":             {"--workload", "serve-mixed", "--seconds", "0"},
		"trace not 0 or 1":         {"--workload", "serve-mixed", "--trace", "2"},
		"positional argument":      {"--workload", "serve-mixed", "extra"},
		"unknown flag":             {"--no-such-flag"},
		"compare with one file":    {"--compare", malformed},
		"compare missing file":     {"--compare", filepath.Join(dir, "absent.jsonl"), malformed},
		"compare malformed file":   {"--compare", malformed, malformed},
		"missing BENCHMARK.json":   {"--root", t.TempDir(), "--workload", "serve-mixed"},
		"malformed BENCHMARK.json": {"--root", dir, "--workload", "serve-mixed"},
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var out, errs bytes.Buffer
			if code := run(context.Background(), append([]string{"--root", ".."}, args...), &out, &errs); code != 2 {
				t.Fatalf("exit %d, want 2\n%s", code, errs.String())
			}
			if out.Len() != 0 {
				t.Fatalf("usage error printed a result: %s", out.String())
			}
		})
	}
}

// TestCompare checks the verdicts: identical sides pass, a clear
// regression beyond the bound exits 1.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, coldMS []float64) string {
		var lines []string
		for _, v := range coldMS {
			line, _ := json.Marshal(map[string]any{"correct": true, "attempted": 1, "failed": 0,
				"metrics": map[string]any{"cold_ms": map[string]any{"value": v, "unit": "ms"}}})
			lines = append(lines, string(line))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", []float64{100, 101, 99, 100, 102, 98})
	same := write("same.jsonl", []float64{100, 99, 101, 100, 98, 102})
	slow := write("slow.jsonl", []float64{150, 151, 149, 150, 152, 148})
	for _, c := range []struct {
		against string
		want    int
		verdict string
	}{{same, 0, "within bound"}, {slow, 1, "REGRESSION"}} {
		var out, errs bytes.Buffer
		if code := run(context.Background(), []string{"--root", "..", "--compare", base, c.against}, &out, &errs); code != c.want {
			t.Fatalf("compare against %s: exit %d, want %d\n%s%s", c.against, code, c.want, out.String(), errs.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("compare against %s: no %q verdict in\n%s", c.against, c.verdict, out.String())
		}
	}
}

// TestServeMixedSmoke runs serve-mixed for a 1-second window against
// freshly built binaries and checks the result line: every end-to-end
// metric present and positive, no failed operation.
func TestServeMixedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons and runs a serving workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/regsimd", "./cmd/regsim-router", "./cmd/paper")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var out, errs bytes.Buffer
	code := run(context.Background(), []string{"--root", "..", "--bin", bin, "--workload", "serve-mixed", "--seconds", "1"}, &out, &errs)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range spec.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("metric %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
		}
	}
}
