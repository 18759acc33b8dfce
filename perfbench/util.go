package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// weighted is a sample that stands for w observations of v.
type weighted struct{ v, w float64 }

// weightedQuantile is the smallest value whose cumulative weight reaches
// q of the total.
func weightedQuantile(s []weighted, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	s = append([]weighted(nil), s...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total, acc float64
	for _, x := range s {
		total += x.w
	}
	for _, x := range s {
		if acc += x.w; acc >= q*total {
			return x.v
		}
	}
	return s[len(s)-1].v
}

// rssEvery is the resident-set sampling period.
const rssEvery = 5 * time.Millisecond

// rssSampler tracks the peak resident set, read from /proc/self/statm
// every rssEvery. A single high-water mark over a whole run is an
// extreme of GC timing; per-interval peaks (take) let the benchmark
// report their median instead.
type rssSampler struct {
	page int64
	peak atomic.Int64 // bytes, since the last take
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() (*rssSampler, error) {
	s := &rssSampler{page: int64(os.Getpagesize()), stop: make(chan struct{}), done: make(chan struct{})}
	if err := s.sample(); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				_ = s.sample() // the first sample proved /proc readable
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() error {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return fmt.Errorf("resident set: %w", err)
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return fmt.Errorf("resident set: malformed /proc/self/statm %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return fmt.Errorf("resident set: %w", err)
	}
	v := pages * s.page
	for old := s.peak.Load(); v > old && !s.peak.CompareAndSwap(old, v); old = s.peak.Load() {
	}
	return nil
}

// take returns the peak resident set since the previous take, in MB.
func (s *rssSampler) take() float64 {
	_ = s.sample()
	return float64(s.peak.Swap(0)) / (1 << 20)
}

// close stops the sampling goroutine and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary, if the build saw
// one. Benchmark checkouts carry no VCS metadata, so sourceDigest
// identifies the code instead.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the working
// directory (the checkout root), skipping hidden build directories.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// printProvenance writes the host and input description every result is
// tied to, as one JSON line ahead of the metrics.
func printProvenance(w io.Writer, workload string, seed uint64, trace int) {
	b, _ := json.Marshal(map[string]any{
		"provenance": map[string]any{
			"workload":   workload,
			"seed":       seed,
			"trace":      trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"cpu_model":  cpuModel(),
			"go_version": runtime.Version(),
			"commit":     commit(),
			"source":     sourceDigest(),
		},
	})
	fmt.Fprintln(w, string(b))
}
