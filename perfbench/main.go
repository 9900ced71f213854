// Command perfbench is the repository benchmark. It runs one workload
// against the bytebrain packages in this process, checks the outputs,
// prints every metric by name and unit, and ends with one JSON line
// holding the metrics BENCHMARK.json lists (end-to-end ones with
// -trace 0, per-layer ones with -trace 1).
//
//	python3 perfbench/run.py --workload ingest-distinct --seed 1 --seconds 10 --trace 0
//
// README.md explains why each workload exists and which layers it loads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workloads maps each workload name to its runner and to how many times
// a run builds its measured state from scratch: setup_s reports the
// median of those builds and the last one is measured. Cheap set-ups
// build five times, query-mixed's seconds-long prefill three.
var workloads = map[string]struct {
	run  func(*run) error
	reps int
}{
	"parse":           {runParse, 5},
	"ingest-distinct": {runIngestDistinct, 5},
	"ingest-repeat":   {runIngestRepeat, 5},
	"query-mixed":     {runQueryMixed, 3},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	workDir  string // scratch space inside the checkout
}

// run is one measured phase of a workload: its options, the tracer (nil
// when untraced), and everything the phase measured.
type run struct {
	options
	reps     int     // setup builds; the last one is measured
	tr       *tracer // nil when untraced
	metrics  map[string]float64
	checks   []check
	notes    []string
	attempts int64
	failures int64
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newRun(o options, reps int, traced bool) *run {
	r := &run{options: o, reps: reps, metrics: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	return r
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation (frame, query, training call).
func (r *run) op(ok bool) {
	r.attempts++
	if !ok {
		r.failures++
	}
}

// verify records a correctness check; a failed check fails the run and
// counts as one failed operation.
func (r *run) verify(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	r.op(ok)
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return len(r.checks) > 0
}

// spec is the part of BENCHMARK.json the runner reads: the metric names
// and units it must report.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: parse, ingest-distinct, ingest-repeat or query-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for service data")
	flag.Parse()
	if err := mainErr(o, trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(o options, traced bool) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	printEnv(o, traced)

	// A traced invocation builds its state once per phase: it reports
	// per-layer metrics, not setup_s.
	reps := w.reps
	if traced {
		reps = 1
	}
	plain := newRun(o, reps, false)
	if err := w.run(plain); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	printRun("untraced", plain, sp.EndToEnd)
	final, list := plain, sp.EndToEnd
	if traced {
		t := newRun(o, reps, true)
		if err := w.run(t); err != nil {
			return fmt.Errorf("%s traced: %w", o.workload, err)
		}
		addOverhead(plain, t, sp.EndToEnd)
		t.tr.printSelfTimes(os.Stdout)
		printRun("traced", t, sp.PerLayer)
		if err := t.tr.write(filepath.Join(o.workDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
			return err
		}
		t.checks = append(t.checks, plain.checks...)
		t.attempts += plain.attempts
		t.failures += plain.failures
		final, list = t, sp.PerLayer
	}
	return printResult(final, list)
}

// printEnv records the run environment ahead of the metrics.
func printEnv(o options, traced bool) {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("env workload=%s seed=%d seconds=%d traced=%v\n", o.workload, o.seed, o.seconds, traced)
	fmt.Printf("env GOMAXPROCS=%d NumCPU=%d go=%s commit=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
	fmt.Printf("env wal_fsync=on-seal (service defaults: WALFsyncEveryBatches=0, WALFsyncInterval=0) store=compacting segment_bytes=%d\n", segmentBytes)
}

// printRun prints a phase's notes, checks and every metric it measured,
// the listed ones first.
func printRun(phase string, r *run, list []metricSpec) {
	for _, n := range r.notes {
		fmt.Printf("%s note %s\n", phase, n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Printf("%s check %-28s %s %s\n", phase, c.name, status, c.detail)
	}
	fmt.Printf("%s metric fail_ratio %.6g ratio (%d of %d operations)\n", phase, ratio(float64(r.failures), float64(r.attempts)), r.failures, r.attempts)
	listed := map[string]bool{}
	for _, m := range list {
		listed[m.Name] = true
		if v, ok := r.metrics[m.Name]; ok {
			fmt.Printf("%s metric %s %.6g %s\n", phase, m.Name, v, m.Unit)
		}
	}
	var rest []string
	for name := range r.metrics {
		if !listed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Printf("%s metric %s %.6g\n", phase, name, r.metrics[name])
	}
}

// addOverhead reports, on the traced phase, how far each end-to-end
// metric moved under tracing (traced minus untraced).
func addOverhead(plain, traced *run, list []metricSpec) {
	for _, m := range list {
		a, okA := plain.metrics[m.Name]
		b, okB := traced.metrics[m.Name]
		if !okA || !okB {
			continue
		}
		fmt.Printf("traced overhead %s %+.6g %s (untraced %.6g, traced %.6g)\n", m.Name, b-a, m.Unit, a, b)
	}
	if a, b := plain.metrics["logs_per_s"], traced.metrics["logs_per_s"]; a > 0 {
		traced.set("trace.overhead_share", 1-b/a)
	}
}

// printResult prints the final JSON line. Every listed metric must have
// been measured; per-layer metrics a workload does not exercise read 0.
func printResult(r *run, list []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempts, Failed: r.failures, Metrics: map[string]value{}}
	var missing []string
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok && r.tr == nil {
			missing = append(missing, m.Name)
		}
		out.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s measured no value for %s", r.workload, strings.Join(missing, ", "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
