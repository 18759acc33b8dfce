package main

import (
	"sync"
	"time"
)

// Host-speed calibration. The benchmark host is a few cores of a shared
// machine, and its speed drifts by 20-40% over minutes as neighbours load
// its caches and cores; every pass of a simulator run slows alike, so no
// statistic over passes removes the drift. A fixed kernel is timed beside
// every pass, and the pass's host times are scaled to the speed the
// kernel shows on the reference host. The kernel runs no repository code,
// so a change to the program moves scaled times as it moves raw ones.
//
// The kernel runs on one goroutine per GOMAXPROCS at once, as the sweep's
// workers do, and each goroutine does half dependent loads over a random
// cycle that fits one core's L2 cache and half integer arithmetic. Both
// halves tracked the passes as the host drifted; the load half alone
// over-corrects when a neighbour thrashes the caches, the arithmetic half
// alone under-corrects.

const (
	calibWords   = 1 << 17   // 512 KiB of uint32, within one core's L2
	calibLoads   = 1_500_000 // dependent loads per goroutine per sample
	calibIters   = 5_000_000 // arithmetic steps per goroutine per sample
	calibSamples = 5         // samples per calibration; the median is kept
	// refCalibMs is a sample's time on the reference host (2-vCPU Intel
	// Xeon KVM guest, Go 1.24, quiet), half in each half of the kernel, so
	// scaled times read as that host's seconds.
	refCalibMs = 22.5
)

// calibrator holds the load cycle, built once per run.
type calibrator struct{ cycle []uint32 }

// newCalibrator builds a single random cycle over calibWords slots
// (Sattolo's shuffle) from a fixed generator: the kernel is the same on
// every run, whatever the workload seed.
func newCalibrator() *calibrator {
	p := make([]uint32, calibWords)
	for i := range p {
		p[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(p) - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return &calibrator{cycle: p}
}

// calibSink keeps the kernel's results observable so its loops stay.
var calibSink [64]uint64

// measure runs the kernel on g goroutines at once, calibSamples times,
// and returns the median sample time in ms.
func (c *calibrator) measure(g int) float64 {
	ms := make([]float64, calibSamples)
	for s := range ms {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				j := uint32(i * 997)
				for k := 0; k < calibLoads; k++ {
					j = c.cycle[j]
				}
				x := uint64(j)
				for k := 0; k < calibIters; k++ {
					x = x*6364136223846793005 + 1442695040888963407
					x ^= x >> 29
				}
				calibSink[i%len(calibSink)] = x
			}(i)
		}
		wg.Wait()
		ms[s] = time.Since(start).Seconds() * 1e3
	}
	return median(ms)
}
