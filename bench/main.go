// Command bench is the repository's one benchmark: six named workloads,
// each reporting the end-to-end metrics a user of the system sees and,
// in a separate traced run, what every layer contributed. See
// README.md in this directory.
//
// Run it from the repository root:
//
//	bash bench/run.sh                                  every workload, untraced
//	bash bench/run.sh --trace 1                        every workload, traced
//	bash bench/run.sh --workload tcp_scripted --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -aa                              the untraced set twice, compared
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// maxProcs caps GOMAXPROCS: the reference box has two cores, and a
// bigger one must not turn the single-worker workloads into a different
// benchmark through the garbage collector's extra threads.
const maxProcs = 4

// A 2-host testbed keeps so little memory alive that Go's collector,
// paced by the live heap, runs about once per op: it then costs over
// half the op time and run-to-run spread is around 15 %. Every workload
// therefore runs with a heap ballast — never touched, so not resident,
// but counted as live — which moves the collector to once per ballast
// of allocation for all workloads alike. harness.default_gc_ratio in
// the traced run says what that hides.
const ballastBytes = 64 << 20

var ballast []byte

func holdBallast() { ballast = make([]byte, ballastBytes) }

func dropBallast() {
	ballast = nil
	runtime.GC()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type flags struct {
	options
	workload string
	aa       bool
	jsonOut  string
	appendTo string
}

func parseFlags(args []string) (*flags, error) {
	var f flags
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "run only this workload, in this process (default: each in a child process)")
	fs.Int64Var(&f.seed, "seed", 1, "workload seed; op i runs under seed+i")
	fs.Float64Var(&f.seconds, "seconds", 10, "length of the timed region")
	fs.IntVar(&f.ops, "ops", 0, "exact op count of the timed region, instead of -seconds")
	fs.IntVar(&f.setups, "setups", 9, "fresh set-ups timed for setup_s, at least (more while they take under half a second together)")
	fs.IntVar(&trace, "trace", 0, "1 = the traced run: per-layer metrics and span files")
	fs.BoolVar(&f.aa, "aa", false, "run the untraced set twice and compare against the bounds")
	fs.StringVar(&f.jsonOut, "json", "", "write the results, with their environment, to this file")
	fs.StringVar(&f.appendTo, "append", "", "append the results as one JSON line each to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	f.traced = trace == 1
	if f.seconds <= 0 || f.setups < 1 {
		return nil, fmt.Errorf("-seconds and -setups must be positive")
	}
	if f.workload != "" && findWorkload(f.workload) == nil {
		return nil, fmt.Errorf("unknown workload %q", f.workload)
	}
	if f.aa && (f.workload != "" || f.traced) {
		return nil, fmt.Errorf("-aa runs the whole untraced set; it takes neither -workload nor -trace 1")
	}
	return &f, nil
}

func run(args []string, stdout io.Writer) error {
	f, err := parseFlags(args)
	if err != nil {
		return err
	}
	if runtime.NumCPU() < maxProcs {
		runtime.GOMAXPROCS(runtime.NumCPU())
	} else {
		runtime.GOMAXPROCS(maxProcs)
	}
	holdBallast()
	root, err := findRoot()
	if err != nil {
		return err
	}
	f.outDir = filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(f.outDir, 0o755); err != nil {
		return err
	}

	var results []*result
	switch {
	case f.workload != "":
		res, err := runWorkload(findWorkload(f.workload), f.options, stdout)
		if err != nil {
			return err
		}
		results = []*result{res}
		if err := save(f, results); err != nil {
			return err
		}
		return printResult(stdout, res) // the result line goes last
	case f.aa:
		a, err := runAll(f, stdout)
		if err != nil {
			return err
		}
		b, err := runAll(f, stdout)
		if err != nil {
			return err
		}
		results = append(a, b...)
		if err := save(f, results); err != nil {
			return err
		}
		return compareAA(stdout, root, a, b)
	default:
		results, err = runAll(f, stdout)
		if err != nil {
			return err
		}
		return save(f, results)
	}
}

// findRoot locates the repository root — the directory that holds
// BENCHMARK.json — from the working directory or its parent, so the
// program runs from the root and from bench/ alike.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root or from bench/")
}

// printResult prints one workload's metrics by name with their units,
// and last the one-line JSON object the benchmark's contract asks for.
func printResult(w io.Writer, res *result) error {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  ops %d (+%d warm-up, %d set-ups)  wall %.1f s\n",
		res.Workload, res.Seed, res.Traced, res.Ops, res.WarmupOps, res.Setups, res.WallS)
	e := res.Env
	fmt.Fprintf(w, "env: commit %s, %s, nproc %d, GOMAXPROCS %d, %s, kernel %s\n",
		e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.Kernel)
	fmt.Fprintf(w, "env: HTTP over loopback TCP; journal under bench/out on %s (tmpfs: %v)\n", e.OutDirFS, e.Tmpfs)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	for _, d := range informational {
		if v, ok := res.Info[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.4f %s  (informational, no bound)\n", d.Name, v.Value, d.Unit)
		}
	}
	fmt.Fprintf(w, "  %-34s %16.4f ratio  (%d failed of %d attempted)\n", "failed_share", res.FailedShare, res.Failed, res.Attempted)
	for _, msg := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", msg)
	}
	fmt.Fprintf(w, "  sim_digest %s\n", res.SimDigest)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload in a child process of its own — a fresh
// heap and a peak RSS that is the workload's alone — and collects the
// results the children write.
func runAll(f *flags, stdout io.Writer) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	var results []*result
	for _, w := range workloads {
		res, err := runChild(self, f, w, stdout)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.name, err)
		}
		results = append(results, res)
	}
	fmt.Fprintf(stdout, "total: %d workloads in %.1f s\n", len(results), time.Since(t0).Seconds())
	return results, nil
}

// runChild runs one workload in a child process and reads back the
// result file it writes.
func runChild(self string, f *flags, w *workload, stdout io.Writer) (*result, error) {
	tmp, err := os.CreateTemp(f.outDir, "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	trace := "0"
	if f.traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-json", tmp.Name(),
		"-seed", strconv.FormatInt(f.seed, 10), "-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64),
		"-ops", strconv.Itoa(f.ops), "-setups", strconv.Itoa(f.setups), "-trace", trace)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var rs []*result
	if err := json.Unmarshal(data, &rs); err != nil || len(rs) != 1 {
		return nil, fmt.Errorf("reading the child's result: %d results, %v", len(rs), err)
	}
	return rs[0], nil
}

// save writes the results to -json (one array) and -append (one line
// each, so a history file can be grepped and diffed).
func save(f *flags, results []*result) error {
	if f.jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(f.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if f.appendTo == "" {
		return nil
	}
	out, err := os.OpenFile(f.appendTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	for _, res := range results {
		if err := enc.Encode(res); err != nil {
			out.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []boundedMetric         `json:"end_to_end"`
	PerLayer  []boundedMetric         `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// compareAA prints, per end-to-end metric and workload, both runs'
// values, how much worse the second is and the bound, and fails if any
// bound is exceeded: two runs of the same code must agree.
func compareAA(w io.Writer, root string, a, b []*result) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	exceeded := 0
	fmt.Fprintf(w, "A/A: %-18s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i := range a {
		for _, bm := range bf.EndToEnd {
			x, y := a[i].Metrics[bm.Name].Value, b[i].Metrics[bm.Name].Value
			worse := ratio(y-x, x)
			if bm.Better == "higher" {
				worse = ratio(x-y, x)
			}
			mark := ""
			if worse > bm.Bound {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(w, "A/A: %-18s %-16s %14.4f %14.4f %8.2f%% %6.0f%%%s\n",
				a[i].Workload, bm.Name, x, y, 100*worse, 100*bm.Bound, mark)
		}
		if a[i].Failed+b[i].Failed > 0 {
			fmt.Fprintf(w, "A/A: %-18s failed ops: %d and %d\n", a[i].Workload, a[i].Failed, b[i].Failed)
			exceeded++
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d comparisons outside their bounds", exceeded)
	}
	return nil
}
