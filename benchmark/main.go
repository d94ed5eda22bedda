// Command benchmark is the repository's end-to-end and per-layer
// benchmark. It drives the program as a library through the public APIs
// of its packages, generates every input from --seed, checks every
// output, and prints one JSON result line last:
//
//	bash benchmark/run.sh --workload runtime-fine --seed 1 --seconds 35 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the separate traced run: it times each layer through spans recorded
// around the benchmark's own calls into the layers, and reports the
// per-layer metrics plus the tracing overhead against the untraced
// workload. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// setupRepeats is how many times a workload's set-up is built and timed;
// setup_s is the median.
const setupRepeats = 5

// outDir holds run records and span files, relative to the checkout root.
const outDir = ".bench_build"

// bench is one built workload, ready to measure.
type bench interface {
	// measure runs the untraced end-to-end measurement for d and sets
	// the workload's end-to-end metrics on r.
	measure(r *run, d time.Duration) error
	// unit runs one repeatable unit of the workload, traced through tr
	// when tr is non-nil, and returns its wall time. The traced run pairs
	// traced and untraced units to report the tracing overhead.
	unit(r *run, tr *tracer) (time.Duration, error)
	close()
}

// workload names a set of inputs; BENCHMARK.json and README.md say why
// each was chosen.
type workload struct {
	name  string
	build func(seed int64) (bench, error)
}

var workloads = []workload{
	{"runtime-fine", buildFine},
	{"runtime-coarse", buildCoarse},
	{"mesh-dispatch", buildMesh},
	{"sim-suite", buildSim},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run accumulates one invocation's checks, metrics and notes.
type run struct {
	workload string
	seed     int64
	traced   bool

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]metric
	info      map[string]any
}

func newRun(w string, seed int64, traced bool) *run {
	return &run{workload: w, seed: seed, traced: traced, metrics: map[string]metric{}, info: map[string]any{}}
}

// check counts one checked operation; a false ok counts it failed.
func (r *run) check(ok bool, format string, a ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, a...))
		}
	}
	return ok
}

// fail counts n failed operations that were attempted.
func (r *run) fail(n int64, format string, a ...any) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.failed += n
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// ok counts n operations that were attempted and passed their checks.
func (r *run) ok(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

func (r *run) set(name string, value float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.mu.Unlock()
}

func (r *run) note(key string, v any) {
	r.mu.Lock()
	r.info[key] = finite(v)
	r.mu.Unlock()
}

// finite replaces NaN and infinite floats in a note (a quantile of an
// empty phase) with nil, which JSON can carry.
func finite(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
	case map[string]any:
		for k, e := range x {
			x[k] = finite(e)
		}
	case []map[string]any:
		for _, e := range x {
			finite(e)
		}
	}
	return v
}

// setTiming sets wall_ms_p50 and wall_ms_tail from exact samples in ms,
// noting which percentile the tail is and how many samples it rests on.
func (r *run) setTiming(s samples) {
	t := tailOf(s)
	r.set("wall_ms_p50", s.median(), "ms")
	r.set("wall_ms_tail", t.Value, "ms")
	r.note("wall_ms_tail", t)
}

func main() {
	code, err := mainErr()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

func mainErr() (int, error) {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 35, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return 2, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	d := time.Duration(*seconds) * time.Second

	heap := startHeapSampler()
	r := newRun(w.name, *seed, *trace == 1)
	var err error
	if r.traced {
		err = tracedRun(r, w, d)
	} else {
		err = endToEnd(r, w, d)
	}
	heapMB := heap.stop()
	if err != nil {
		return 1, err
	}
	if !r.traced {
		r.set("heap_peak_mb", heapMB, "MB")
	}
	return emit(r, d)
}

// endToEnd builds the workload setupRepeats times (setup_s is the median)
// and measures the last build untraced.
func endToEnd(r *run, w *workload, d time.Duration) error {
	b, setup, err := buildTimed(w, r.seed)
	if err != nil {
		return err
	}
	defer b.close()
	r.set("setup_s", setup, "s")
	if err := b.measure(r, d); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if r.attempted > 0 {
		r.note("error_rate", float64(r.failed)/float64(r.attempted))
	}
	return nil
}

// buildTimed builds the workload setupRepeats times, keeps the last
// build, and returns the median build time in seconds.
func buildTimed(w *workload, seed int64) (bench, float64, error) {
	var times samples
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		b, err = w.build(seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times.addDur(time.Since(start), time.Second)
	}
	return b, times.median(), nil
}

// declared reads the metric list BENCHMARK.json declares for this kind of
// run: end_to_end for untraced runs, per_layer for traced ones.
func declared(traced bool) (map[string]string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := doc.EndToEnd
	if traced {
		list = doc.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

// emit prints every metric by name and unit, stores the run record, and
// prints the JSON result as the last line. The metrics must be exactly
// the ones BENCHMARK.json declares for the run, in the declared units.
func emit(r *run, d time.Duration) (int, error) {
	want, err := declared(r.traced)
	if err != nil {
		return 1, err
	}
	names := make([]string, 0, len(r.metrics))
	for n, m := range r.metrics {
		if !validName(n) {
			return 1, fmt.Errorf("invalid metric name %q", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return 1, fmt.Errorf("metric %s has no finite value", n)
		}
		if unit, ok := want[n]; !ok || unit != m.Unit {
			return 1, fmt.Errorf("metric %s (%s) is not declared in BENCHMARK.json with that unit", n, m.Unit)
		}
		names = append(names, n)
	}
	for n := range want {
		if _, ok := r.metrics[n]; !ok {
			return 1, fmt.Errorf("declared metric %s was not measured", n)
		}
	}
	sort.Strings(names)
	host := fingerprint()
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s commit=%s\n", host.NProc, host.GoMaxProcs, host.GoVersion, host.Commit)
	fmt.Printf("run: workload=%s seed=%d seconds=%.0f traced=%v\n", r.workload, r.seed, d.Seconds(), r.traced)
	for _, n := range names {
		fmt.Printf("%-36s %16.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	infoKeys := make([]string, 0, len(r.info))
	for k := range r.info {
		infoKeys = append(infoKeys, k)
	}
	sort.Strings(infoKeys)
	for _, k := range infoKeys {
		b, _ := json.Marshal(r.info[k])
		fmt.Printf("note %s: %s\n", k, b)
	}
	for _, f := range r.failures {
		fmt.Printf("FAIL: %s\n", f)
	}

	record := map[string]any{
		"host": host, "workload": r.workload, "seed": r.seed, "seconds": d.Seconds(),
		"traced": r.traced, "attempted": r.attempted, "failed": r.failed,
		"failures": r.failures, "metrics": r.metrics, "notes": r.info,
	}
	path := filepath.Join(outDir, "runs", fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, b2i(r.traced)))
	if err := writeJSON(path, record); err != nil {
		return 1, err
	}

	result := map[string]any{
		"correct": r.failed == 0 && r.attempted > 0, "attempted": r.attempted,
		"failed": r.failed, "metrics": r.metrics,
	}
	line, err := json.Marshal(result)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// host is the fingerprint stored with every run record.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if h.Commit != "unknown" {
			h.Commit += dirty
		}
	}
	return h
}

// heapSampler tracks live heap object bytes, read every few milliseconds
// through runtime/metrics (which does not stop the world). The peak of a
// whole run is set by whichever garbage-collection cycle happened to
// trigger latest, so it is kept per one-second window and the median of
// the window peaks is reported: the heap a typical second of the run
// peaks at.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peaks samples // bytes, one per completed window
}

const heapWindow = time.Second

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		window := time.Now().Add(heapWindow)
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if now := time.Now(); !now.Before(window) {
				h.peaks.add(float64(peak))
				peak, window = 0, now.Add(heapWindow)
			}
			select {
			case <-h.stopc:
				if len(h.peaks) == 0 {
					h.peaks.add(float64(peak))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the median window peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return h.peaks.median() / (1 << 20)
}
