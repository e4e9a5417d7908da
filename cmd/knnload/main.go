// Command knnload is the workload driver for the online serving tier:
// it replays a deterministic Zipfian mix of point reads and profile-
// update writes against one or more live targets while the engine
// (knnrun -serveviews) iterates underneath, and reports per-op-type
// throughput and p50/p95/p99 latency over time-bucketed windows.
//
// The op sequence is a pure function of the flags (see internal/load):
// a fixed -seed replays byte-for-byte the same traffic against every
// target. Arrival is open-loop, so a saturated server shows up as tail
// latency instead of silently throttling the driver. The exit status is
// non-zero when any target saw more than -maxerrors errors.
//
// Run `knnload -help` for the flags; docs/OPERATIONS.md explains each
// and how to read the report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"knnpc/internal/load"
	"knnpc/internal/netstore"
)

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "knnload:", err)
		os.Exit(1)
	}
}

// targetSpec is one parsed -target flag.
type targetSpec struct {
	label string
	url   string // base URL, or "net:" addresses
}

// targetList collects repeated -target flags.
type targetList []targetSpec

// String renders the accumulated specs (flag.Value).
func (t *targetList) String() string {
	parts := make([]string, len(*t))
	for i, s := range *t {
		parts[i] = s.label + "=" + s.url
	}
	return strings.Join(parts, " ")
}

// Set parses one label=url spec (flag.Value).
func (t *targetList) Set(v string) error {
	label, url, ok := strings.Cut(v, "=")
	if !ok || label == "" || url == "" {
		return fmt.Errorf("want label=url, got %q", v)
	}
	for _, prev := range *t {
		if prev.label == label {
			return fmt.Errorf("duplicate target label %q", label)
		}
	}
	*t = append(*t, targetSpec{label: label, url: url})
	return nil
}

// run parses flags, replays the plan against each target in order, and
// prints the report — separated from main so tests can drive it.
func run(ctx context.Context, out io.Writer, args []string) error {
	fs := flag.NewFlagSet("knnload", flag.ContinueOnError)
	var targets targetList
	fs.Var(&targets, "target", "repeatable label=url target (url = knnserve base URL, or net:addr1,addr2 for the store protocol)")
	partitions := fs.Int("partitions", 8, "engine partition count m, for net: targets")
	users := fs.Int("users", 100000, "simulated user population")
	items := fs.Int("items", 10000, "item-space size writes draw from")
	ops := fs.Int("ops", 10000, "total operations per target")
	rate := fs.Float64("rate", 1000, "open-loop arrival rate, ops/s")
	zipf := fs.Float64("zipf", 1.1, "Zipf popularity exponent s (> 1)")
	writeFrac := fs.Float64("writefrac", 0.05, "fraction of ops that are profile-update writes")
	addFrac := fs.Float64("addfrac", 0, "fraction of ops that add a whole new user (PUT /v1/profile/{id})")
	delFrac := fs.Float64("delfrac", 0, "fraction of ops that tombstone a user (DELETE /v1/profile/{id})")
	profileFrac := fs.Float64("profilefrac", 0.3, "fraction of reads hitting /v1/profile instead of /v1/neighbors")
	burst := fs.Float64("burst", 1, "rate multiplier during burst windows (<= 1 disables)")
	burstEvery := fs.Duration("burstevery", 10*time.Second, "burst period")
	burstLen := fs.Duration("burstlen", time.Second, "burst duration at the start of each period")
	window := fs.Duration("window", time.Second, "time-bucket width for windowed percentiles")
	conc := fs.Int("conc", 8, "worker goroutines per target")
	seed := fs.Int64("seed", 1, "RNG seed; same seed replays the identical op sequence")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout for HTTP targets")
	maxErrors := fs.Uint64("maxerrors", 0, "errors tolerated per target before a non-zero exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(targets) == 0 {
		return errors.New("at least one -target is required")
	}

	plan, err := load.BuildPlan(load.PlanConfig{
		Users: *users, Items: *items, Ops: *ops,
		Rate: *rate, Skew: *zipf,
		WriteFrac: *writeFrac, AddFrac: *addFrac, DelFrac: *delFrac,
		ProfileFrac: *profileFrac,
		Burst:       *burst, BurstEvery: *burstEvery, BurstLen: *burstLen,
		Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "knnload: %d ops over %d users (zipf s=%g, %.0f%% writes), seed %d\n",
		len(plan), *users, *zipf, *writeFrac*100, *seed)

	var results []*load.Result
	var failed []string
	for _, spec := range targets {
		tgt, err := openTarget(spec, *partitions, *timeout)
		if err != nil {
			return err
		}
		res, err := load.Run(ctx, tgt, plan, load.RunConfig{Concurrency: *conc, Window: *window})
		tgt.Close()
		if err != nil {
			return fmt.Errorf("target %s: %w", spec.label, err)
		}
		fmt.Fprintln(out)
		res.WriteTable(out)
		results = append(results, res)
		if res.Errors() > *maxErrors {
			failed = append(failed, fmt.Sprintf("%s (%d errors > %d allowed)", spec.label, res.Errors(), *maxErrors))
		}
	}
	if len(results) > 1 {
		fmt.Fprintln(out)
		load.WriteComparison(out, results)
	}
	if len(failed) > 0 {
		return fmt.Errorf("error budget exceeded on target(s): %s", strings.Join(failed, "; "))
	}
	return nil
}

// openTarget builds the Target a spec names: "net:" URLs dial the
// store protocol directly, anything else is a knnserve base URL.
func openTarget(spec targetSpec, partitions int, timeout time.Duration) (load.Target, error) {
	if list, ok := strings.CutPrefix(spec.url, "net:"); ok {
		addrs, err := netstore.ParseAddrs(list)
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", spec.label, err)
		}
		return load.NewDirectTarget(spec.label, addrs, partitions)
	}
	return load.NewHTTPTarget(spec.label, strings.TrimSuffix(spec.url, "/"), timeout), nil
}
