// Command eden-bench is the repository's end-to-end benchmark. It runs one
// workload per process against the Eden packages (udpnet, enclave, edenvm,
// stage, experiments, controller, ctlproto), checks the program's outputs
// against values it computes itself, and prints one JSON result line:
//
//	eden-bench --workload udp-raw --seed 1 --seconds 10 --trace 0
//	eden-bench --workload all --seed 1 --seconds 10 [--trace 1]
//	eden-bench compare PARENT.jsonl CHANGE.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the workload runs with spans and the program's samplers on, followed by
// the isolated per-layer timings, and the result carries the per-layer
// metrics. See README.md for the workloads, metrics and seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure of the result line.
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

// runCtx is what a workload's timed run receives.
type runCtx struct {
	dur   time.Duration
	spans *spanLog // nil unless traced
}

// outcome is what a workload's timed run reports.
type outcome struct {
	attempted, failed int64
	// errs are failed output checks; any makes the result incorrect.
	errs []string
	// cpuPerOpUs and latencyUs are end-to-end metrics, opsPerSec a
	// reference figure; see README.md for what an operation and the
	// latency are in each workload. Each is a median over the run's
	// slices, which keeps a burst of noise in one slice out of the figure.
	cpuPerOpUs float64
	latencyUs  float64
	opsPerSec  float64
	// ref holds the workload's named figures (printed, not in the
	// result line).
	ref []namedFigure
}

type namedFigure struct {
	name  string
	value float64
	unit  string
	n     int // sample count, 0 when not a percentile
}

func (o *outcome) failf(format string, args ...any) {
	if len(o.errs) < 20 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) addRef(name string, value float64, unit string, n int) {
	o.ref = append(o.ref, namedFigure{name, value, unit, n})
}

// fixture is a workload set up and ready to run.
type fixture interface {
	run(rc *runCtx) *outcome
	close()
}

// workload builds a fixture from a seed. traced fixtures turn on the
// program's own samplers.
type workloadDef struct {
	name  string
	setup func(seed int64, traced bool) (fixture, error)
}

var workloads = []workloadDef{
	{"udp-raw", setupUDPRaw},
	{"enclave-mix", setupEnclaveMix},
	{"sim-fig9", setupSimFig9},
	{"ctl-sync", setupCtlSync},
}

// Set-up runs at least setupRepeats times and until the set-ups took
// setupTotal together (at most setupMax times); setup_s is the median.
// Workloads whose set-up takes milliseconds repeat it often enough that
// the median holds still from run to run.
const (
	setupRepeats = 7
	setupTotal   = time.Second
	setupMax     = 200
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("eden-bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: udp-raw, enclave-mix, sim-fig9, ctl-sync or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 for the traced run with per-layer metrics")
	fs.Parse(os.Args[1:])
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "eden-bench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traceFlag == 1))
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "eden-bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := checkSourceTree(); err != nil {
		fmt.Fprintln(os.Stderr, "eden-bench:", err)
		os.Exit(2)
	}
	printHeader(os.Stdout, w.name, *seed, *traceFlag == 1)
	res, err := runOne(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eden-bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eden-bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checkSourceTree refuses to run outside a checkout of the program: the
// benchmark measures the sources it was built from.
func checkSourceTree() error {
	if _, err := os.Stat(filepath.Join("internal", "enclave", "enclave.go")); err != nil {
		return fmt.Errorf("run from the repository root (internal/enclave not found): %w", err)
	}
	return nil
}

func runOne(w *workloadDef, seed int64, dur time.Duration, traced bool) (*result, error) {
	var fx fixture
	var setups []float64
	var spent time.Duration
	for i := 0; i < setupMax && (i < setupRepeats || spent < setupTotal); i++ {
		if fx != nil {
			fx.close()
			// Collect the discarded fixture now, so its garbage neither
			// lands in the next set-up's time nor in the peak RSS.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		fx, err = w.setup(seed, traced)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	rc := &runCtx{dur: dur}
	if traced {
		rc.spans = newSpanLog()
	}
	steal0, total0 := machineTicks()
	o := fx.run(rc)
	steal1, total1 := machineTicks()
	fx.close()
	if total1 > total0 {
		fmt.Printf("machine steal during the run: %.1f%% of CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}

	res := &result{
		Correct:   len(o.errs) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, e := range o.errs {
		fmt.Fprintf(os.Stderr, "CHECK FAILED (%s): %s\n", w.name, e)
	}
	if o.attempted < 1 {
		res.Correct = false
		res.Attempted = 1
		fmt.Fprintf(os.Stderr, "CHECK FAILED (%s): no operation completed\n", w.name)
	}
	for _, f := range o.ref {
		if f.n > 0 {
			fmt.Printf("ref %-28s %14.3f %-8s (n=%d)\n", f.name, f.value, f.unit, f.n)
		} else {
			fmt.Printf("ref %-28s %14.3f %s\n", f.name, f.value, f.unit)
		}
	}
	fmt.Printf("ref %-28s %14.3f 1/s\n", "ops_per_s", o.opsPerSec)
	fmt.Printf("ops attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)

	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["max_rss_mb"] = metric{maxRSSMB(), "MB"}
		res.Metrics["cpu_us_per_op"] = metric{o.cpuPerOpUs, "us"}
		res.Metrics["latency_us_p50"] = metric{o.latencyUs, "us"}
		return res, matchSpec(false, res.Metrics)
	}

	spanPath := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := rc.spans.writeFile(spanPath); err != nil {
		fmt.Fprintln(os.Stderr, "eden-bench: spans:", err)
	} else {
		fmt.Printf("spans: %d written to %s\n", rc.spans.len(), spanPath)
	}
	rc.spans.printSelfTimes(os.Stdout)
	layers, err := measureLayers(seed, os.Stdout)
	if err != nil {
		return nil, fmt.Errorf("per-layer timings: %w", err)
	}
	layers["trace.cpu_us_per_op"] = metric{o.cpuPerOpUs, "us"}
	res.Metrics = layers
	return res, matchSpec(true, res.Metrics)
}

// matchSpec checks the measured metrics against BENCHMARK.json, so the
// two cannot drift apart.
func matchSpec(traced bool, got map[string]metric) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if traced {
		return checkSpec(spec.PerLayer, got)
	}
	return checkSpec(spec.EndToEnd, got)
}

// printHeader prints what a run needs to be reproduced and compared.
func printHeader(w io.Writer, name string, seed int64, traced bool) {
	fmt.Fprintf(w, "eden-bench workload=%s seed=%d trace=%v\n", name, seed, traced)
	fmt.Fprintf(w, "revision=%s go=%s gomaxprocs=%d cpu=%q\n",
		revision(), runtime.Version(), runtime.GOMAXPROCS(0), cpuModel())
}

// revision names the measured sources: the git commit when the checkout
// is a repository, else a digest of the program's Go files.
func revision() string {
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "src-" + sourceDigest()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimes returns the process's user and system CPU time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// runAll runs every workload in its own process and prints a summary;
// with traced set it runs each workload untraced and then traced, and
// prints the tracing overhead.
func runAll(seed int64, seconds float64, traced bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eden-bench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		modes := []int{0}
		if traced {
			modes = append(modes, 1)
		}
		var plain *result
		for _, m := range modes {
			args := []string{"--workload", w.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(m)}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "eden-bench: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			res, err := lastResult(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "eden-bench: %s: %v\n", w.name, err)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			if m == 0 {
				line, _ := json.Marshal(res)
				fmt.Printf("RESULT %s %s\n", w.name, line)
			}
			fmt.Printf("== %s trace=%d: attempted=%d failed=%d correct=%v\n",
				w.name, m, res.Attempted, res.Failed, res.Correct)
			printMetrics(os.Stdout, res.Metrics)
			if m == 0 {
				plain = res
			} else if plain != nil {
				t := res.Metrics["trace.cpu_us_per_op"].Value
				u := plain.Metrics["cpu_us_per_op"].Value
				if u > 0 {
					fmt.Printf("== %s tracing overhead: %+.1f%% CPU per op (traced %.3f vs untraced %.3f us)\n",
						w.name, 100*(t/u-1), t, u)
				}
			}
		}
	}
	return status
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-34s %16.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// lastResult parses the JSON result on the last non-empty line of out.
func lastResult(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
