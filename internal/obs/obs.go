// Package obs is the unified telemetry layer: zero-allocation metrics
// (a named-counter registry and fixed-bucket log2 histograms) usable
// from lock hot paths, a lock-event observer that turns the simulator's
// expanded trace stream into per-lock hold-time and handover-latency
// histograms plus spin/block transition counts, and a Perfetto/Chrome
// trace_event JSON writer. The per-lock table is printed from a run's
// Result (harness.Result.WriteLockMetrics).
//
// The package mirrors how eBPF-based concurrency tooling makes kernel
// lock behaviour inspectable: instrumentation points are free when no
// consumer is attached (the simulator nil-checks its observer exactly
// like its Tracer), and all recording primitives are allocation-free so
// they can run inside lock hot paths and the native monitor's probe
// loop without perturbing what they measure.
package obs
