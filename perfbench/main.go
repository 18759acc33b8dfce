// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed wall-clock budget, checks every output, and prints every
// metric by name with its unit. The last line of standard output is the
// JSON result.
//
//	perfbench --workload sweep --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics (host wall-clock time, tracing
// off); --trace 1 makes a separate traced run and reports the per-layer
// metrics. perfbench/run.sh builds and runs it from a source checkout;
// perfbench/layers.json records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// defaultSeed is the seed whose cell fingerprints are recorded in
// expected/seed1.json.
const defaultSeed = 1

// minPasses is the fewest timed passes a simulator run makes, whatever
// --seconds says, so its medians always rest on several samples.
const minPasses = 3

// workload is one benchmark workload. cells is nil for native-mutex.
type workload struct {
	name  string
	cells func(seed uint64) []cell
	// base is the observer set of the untraced run.
	base obsSet
}

var workloads = []workload{
	{"sweep", sweep, obsSet{Trace: true}},
	{"campaign-checked", campaignChecked, obsSet{Trace: true, Races: true, Window: true}},
	{"native-mutex", nil, obsSet{}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

//go:embed expected/seed1.json
var expectedJSON []byte

// expected returns the recorded default-seed fingerprints, by workload
// and cell name, as the harness entry points produced them.
func expected() map[string]map[string]ref {
	var t map[string]map[string]ref
	if err := json.Unmarshal(expectedJSON, &t); err != nil {
		panic(fmt.Sprintf("perfbench: corrupt expected/seed1.json: %v", err))
	}
	return t
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep, campaign-checked, native-mutex")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 30, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	record := fs.Bool("record", false, "print the default-seed fingerprint table from the harness entry points and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		return recordExpected(stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload <name> --seconds >= 1 --trace 0|1:", err)
		return 2
	}
	printProvenance(stdout, w.name, *seed, *trace)

	var res result
	secs := float64(*seconds)
	switch {
	case w.cells == nil && *trace == 0:
		res, err = runNative(*seed, secs, stdout)
	case w.cells == nil:
		res, err = traceNative(*seed, secs, stdout)
	case *trace == 0:
		res, err = runSim(w, *seed, secs, stdout)
	default:
		res, err = traceSim(w, *seed, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// recordExpected regenerates expected/seed1.json:
//
//	go run . --record > expected/seed1.json
func recordExpected(stdout, stderr io.Writer) int {
	table := map[string]map[string]ref{}
	for _, w := range workloads {
		if w.cells == nil {
			continue
		}
		cells := w.cells(defaultSeed)
		table[w.name] = map[string]ref{}
		for _, c := range cells {
			r, err := runEntry(c)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.Name, err)
				return 1
			}
			table[w.name][c.Name] = r
		}
	}
	b, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
