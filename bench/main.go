// Command bench is the repository's benchmark: it drives core.Engine,
// internal/serve over httptest and internal/load plans from one process,
// prints every end-to-end and per-layer metric by name with its unit,
// checks the outputs, and writes a traced run per workload.
//
//	go run ./bench                       every workload: -runs end-to-end runs, then one traced pass
//	go run ./bench -workload iter-cpu    one workload
//	go run ./bench -compare a.json b.json
//
// With -trace 0 or -trace 1 it makes exactly one run of one workload and
// prints, as its last line, the result object BENCHMARK.json's driver
// reads: the end-to-end metrics (0) or the per-layer metrics (1). The
// suite makes each of its runs that way too, in a process of its own, so
// a run never inherits another's heap or resident-set high-water mark.
//
// README.md in this directory says why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all)")
		seed     = flag.Int64("seed", 1234, "seed of the dataset, the update stream and the load plan")
		seconds  = flag.Float64("seconds", defaultSeconds, "nominal measured seconds per run; fixes the amount of work")
		runs     = flag.Int("runs", 3, "end-to-end runs per workload, each on a fresh engine")
		trace    = flag.String("trace", "", "0: one end-to-end run, 1: one traced run with layer probes; prints the driver's result line")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for results.json, the trace files and scratch state")
		result   = flag.String("result", "", "with -trace: also write the run's full result to this file (the suite reads it)")
		compare  = flag.Bool("compare", false, "compare two results.json files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *runs < 1 {
		fatal("-seconds and -runs must be at least 1")
	}
	selected := workloads
	if *workload != "" {
		w, ok := workloadByName(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		selected = []workloadSpec{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("%v", err)
	}
	switch *trace {
	case "":
		os.Exit(runSuite(selected, *seed, *seconds, *runs, *out))
	case "0", "1":
		if len(selected) != 1 {
			fatal("-trace %s needs -workload", *trace)
		}
		os.Exit(runOnce(selected[0], *seed, *seconds, *trace == "1", *out, *result))
	}
	fatal("-trace takes 0 or 1")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOnce makes one run and prints the driver's result line.
func runOnce(w workloadSpec, seed int64, seconds float64, traced bool, out, resultPath string) int {
	// On-disk state stays inside the checkout, in a directory of this
	// process's own.
	scratch, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		fatal("%v", err)
	}
	defer os.RemoveAll(scratch)
	rc := runConfig{workload: w.Name, seed: seed, seconds: seconds, setups: 3, scratch: scratch}
	if traced {
		rc.trace = newTracer(w.Name)
		rc.setups = 1
	}
	res, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
		return 1
	}
	if traced {
		spans := rc.trace.snapshot()
		if err := writeChromeTrace(filepath.Join(out, "trace-"+w.Name+".json"), spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		printSelfTimes(w.Name, spans)
	}
	printRun(res)
	if resultPath != "" {
		blob, err := json.Marshal(res)
		if err == nil {
			err = os.WriteFile(resultPath, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	specs, values := endToEnd, res.E2E
	if traced {
		specs, values = perLayer, res.Layer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, make(map[string]metric)}
	for _, m := range specs {
		// A layer the workload bypasses reads exactly 0.
		line.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	if resultPath == "" { // the suite reads the result file instead
		blob, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(blob))
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// runSuite is the one command: for each workload, -runs end-to-end runs
// and one traced pass, each in a child process running runOnce, then the
// report and results.json.
func runSuite(selected []workloadSpec, seed int64, seconds float64, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	doc := resultsDoc{Seed: seed, Seconds: seconds}
	ok := true
	for _, w := range selected {
		var all []*runResult
		for r := 0; r <= runs; r++ {
			res, err := runChild(self, w.Name, seed, seconds, r == runs, out)
			if res == nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.Name, r, err)
				ok = false
				break
			}
			ok = ok && res.correct()
			all = append(all, res)
		}
		for _, m := range checkRepeatability(all) {
			ok = false
			fmt.Printf("FAIL %s: %s\n", w.Name, m)
		}
		printWorkloadReport(w, all)
		doc.Runs = append(doc.Runs, all...)
	}
	blob, err := json.MarshalIndent(doc, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "results.json"), blob, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		fmt.Println("FAIL: at least one correctness check failed")
		return 1
	}
	return 0
}

// runChild makes one run in a child process and reads its result back.
// A run that failed a correctness check still returns its result (the
// child exits 1 after writing it); nil means the run itself broke.
func runChild(self, workload string, seed int64, seconds float64, traced bool, out string) (*runResult, error) {
	path := filepath.Join(out, "run-result.json")
	os.Remove(path)
	defer os.Remove(path)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-out", out, "-result", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%v (%v)", runErr, err)
	}
	var res runResult
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, err
	}
	return &res, runErr
}
