package main

import "testing"

// TestScaled pins how each unit converts to the reference host speed: on a
// host running at half speed, times halve, rates double, and memory and
// counts stay as measured.
func TestScaled(t *testing.T) {
	for _, c := range []struct {
		unit string
		want float64
	}{{"s", 5}, {"ms", 5}, {"1/s", 20}, {"MiB", 10}, {"count", 10}} {
		if got := scaled(c.unit, 10, 0.5); got != c.want {
			t.Errorf("scaled(%q, 10, 0.5) = %v, want %v", c.unit, got, c.want)
		}
	}
}

// TestGaugeSpeed checks that speed compares the median sample with the
// reference, and that a phase which sampled nothing is left unscaled.
func TestGaugeSpeed(t *testing.T) {
	if got := speed(nil); got != 1 {
		t.Errorf("speed with no samples = %v, want 1", got)
	}
	if got := speed([]float64{2 * gaugeReference, 4 * gaugeReference, 100 * gaugeReference}); got != 0.25 {
		t.Errorf("speed = %v, want 0.25 (reference over the median sample)", got)
	}
}
