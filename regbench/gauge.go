package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// The reference machine's speed drifts with its neighbours' load, by up to
// 2.5× over minutes and sometimes within a second, so wall-clock times from
// runs made minutes apart are not comparable as they stand. A run therefore
// samples the host gauge — a fixed computation that runs no repository code —
// in the pauses between its timed operations, and scales its end-to-end
// metrics by the ratio of gaugeReference to the median sample: every time
// reads as if measured with the host at its reference speed, so a slower
// program still reads slower while a slower host mostly does not.
//
// The gauge is the geometric mean of two kernels, each run on both CPUs as
// the workloads use them: sorting a 64 Ki-element slice that fits in the
// core's cache (execution speed) and summing a 64 MiB slice (memory
// bandwidth). The simulator slows with both. In calibration on the reference
// machine over two episodes of host slow-down, a fixed in-process simulation
// timed in 30-second bins had a spread (IQR over median) of 20% and 71% as
// measured and 4.4% and 5.4% divided by the gauge; either kernel alone left
// up to 7%, and a cache-missing hash-map kernel tracked one episode but left
// 43% in the other. In the two ten-run sets under testdata/baseline it cut
// the serving workloads' spreads from up to 43% as measured to at most 17%,
// and the batch workloads' from up to 12.5% to at most 8.5%. A change that
// makes the program burn CPU while the clients pause would slow the gauge
// too and be partly scaled away; the values as measured on standard error
// still show it.

const (
	gaugeSortLen   = 1 << 16 // ints sorted per pass: 512 KiB
	gaugeSortPass  = 5       // sorts per goroutine per sample
	gaugeStreamLen = 1 << 23 // uint64s summed per goroutine per sample: 64 MiB
	gaugeWorkers   = 2       // one per CPU of the reference machine

	// gaugeReference is the gauge's median on the reference machine at its
	// fastest, in milliseconds, so scaled times are close to what an
	// uncontended host measures.
	gaugeReference = 12.0
)

// gauge holds the kernels' inputs and the run's samples. Sampling allocates
// nothing, so the harness's heap and garbage collector, which hold the
// repository's data, do not enter the measurement.
type gauge struct {
	keys    []int
	scratch [gaugeWorkers][]int
	stream  []uint64
	sink    [gaugeWorkers]uint64

	// Samples in ms: those taken during set-up scale setup_s, and those
	// taken once the run starts measuring scale everything else, so each
	// metric is scaled by the host's speed while it was being measured.
	setup, measure []float64
	measuring      bool
}

func newGauge() *gauge {
	rng := rand.New(rand.NewPCG(1, 2))
	g := &gauge{keys: make([]int, gaugeSortLen), stream: make([]uint64, gaugeStreamLen)}
	for i := range g.keys {
		g.keys[i] = rng.Int()
	}
	for i := range g.stream {
		g.stream[i] = rng.Uint64()
	}
	for w := range g.scratch {
		g.scratch[w] = make([]int, gaugeSortLen)
	}
	return g
}

// sample times both kernels once and records their geometric mean.
func (g *gauge) sample() {
	sortMS := g.parallel(func(w int) {
		for range gaugeSortPass {
			copy(g.scratch[w], g.keys)
			slices.Sort(g.scratch[w])
		}
	})
	streamMS := g.parallel(func(w int) {
		var sum uint64
		for _, v := range g.stream {
			sum += v
		}
		g.sink[w] = sum
	})
	v := math.Sqrt(sortMS * streamMS)
	if g.measuring {
		g.measure = append(g.measure, v)
	} else {
		g.setup = append(g.setup, v)
	}
}

// startMeasuring marks the end of the run's set-up: later samples scale the
// measured metrics.
func (g *gauge) startMeasuring() { g.measuring = true }

// parallel runs kernel on every worker at once and returns the wall time in
// ms until the last finishes.
func (g *gauge) parallel(kernel func(w int)) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for w := range gaugeWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(w)
		}()
	}
	wg.Wait()
	return ms(time.Since(start))
}

// speed is the host's speed relative to the reference while samples were
// taken: gaugeReference over their median (1 when there are none).
func speed(samples []float64) float64 {
	if len(samples) == 0 {
		return 1
	}
	return gaugeReference / median(samples)
}

// scaled converts a value measured at the given host speed to the reference
// speed by its unit: times shrink on a slow host's scale, rates grow, and
// anything else (memory, counts) is left as measured.
func scaled(unit string, v, speed float64) float64 {
	switch unit {
	case "s", "ms", "us", "ns":
		return v * speed
	case "1/s":
		return v / speed
	}
	return v
}
