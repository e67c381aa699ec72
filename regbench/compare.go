package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// significance is the U-test p-value below which a change beyond its bound
// counts as real.
const significance = 0.05

// readResults collects each metric's values from a file of result lines
// (blank lines skipped).
func readResults(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	values := map[string][]float64{}
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var res struct {
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			return nil, fmt.Errorf("%s: line %d is not a result line", path, n+1)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return values, nil
}

// compareFiles prints, per end-to-end metric, both sides' medians and
// interquartile ranges, the Mann-Whitney U p-value, and a verdict against
// the metric's bound. A metric worse by more than its bound with
// p < significance is a regression, and makes the exit status 1.
func compareFiles(spec *benchSpec, basePath, newPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "regbench: %v\n", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "regbench: %v\n", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tbase median\tbase IQR\tnew median\tnew IQR\tworse by\tbound\tp\tverdict")
	regressed := false
	for _, m := range spec.EndToEnd {
		a, b := base[m.Name], cur[m.Name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\t\t\tmissing\n", m.Name)
			continue
		}
		ma, mb := median(a), median(b)
		worse := (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
		_, p := mannWhitney(a, b)
		verdict := "within bound"
		switch {
		case worse > m.Bound && p < significance:
			verdict = "REGRESSION"
			regressed = true
		case worse > m.Bound:
			verdict = "worse, not significant"
		case -worse > m.Bound && p < significance:
			verdict = "improved"
		}
		fmt.Fprintf(tw, "%s\t%s %s\t%.1f%%\t%s %s\t%.1f%%\t%+.1f%%\t%.0f%%\t%.3f\t%s\n", m.Name,
			fmtf(ma), m.Unit, 100*relIQR(a), fmtf(mb), m.Unit, 100*relIQR(b), 100*worse, 100*m.Bound, p, verdict)
	}
	tw.Flush()
	if regressed {
		return 1
	}
	return 0
}
