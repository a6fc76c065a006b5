// Command perfbench is the repository's end-to-end serving benchmark.
// It builds cmd/serve once, starts the real binary as child processes
// on 127.0.0.1 for one workload, drives it over HTTP from this single
// load-generator process in a closed loop, and checks every answer
// byte for byte against an in-process oracle. With --trace 1 it also
// replays the workload's requests in-process through the layer
// functions the server calls and reports each layer's self time (see
// trace.go).
//
// Run it from the repository root through the wrapper, which keeps the
// Go build cache inside the checkout:
//
//	bash perfbench/run.sh --workload interact --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10 --workload all --seconds 20
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end ones untraced, the
// per-layer ones traced). The end-to-end latencies it reports count
// each request at its class's quiet time (see loopResult.quiet), which
// a shared host's slow phases hardly move. The
// lines before it are the human report: the host block, those metrics,
// and the window's observed throughput_rps, p50_ms, p90_ms and p99_ms
// (where the run leaves ten samples beyond it), error_rate and
// peak_rss_mb.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// wallLimit bounds one run, set-up and teardown included.
const wallLimit = 170 * time.Second

// warmupWindow is the untimed closed-loop warm-up before the timed
// window, shared out among its segments: connections open, server
// caches and page cache settle.
const warmupWindow = 2 * time.Second

// setupRuns is how many times a run sets its servers up; setup_s is
// the median.
const setupRuns = 9

// segments is how many of those set-ups share out the timed window,
// each serving an equal, consecutive part of it, so that where one
// process's memory and threads landed on the host is a quarter of a
// run, not all of it.
const segments = 4

type options struct {
	root     string // repository root: holds cmd/serve and BENCHMARK.json
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    float64 // 0: each workload's own dataset scale (tests shrink it)
}

func main() {
	o := options{root: "."}
	var trace, steady int
	flag.StringVar(&o.workload, "workload", "", "workload ("+strings.Join(workloadNames, ", ")+"); with --steady also \"all\" or a comma list")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the request mix (the dataset is always GrQc, seed 42)")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = also replay in-process with spans and report per-layer metrics")
	flag.IntVar(&steady, "steady", 0, "run each workload this many times, seeds 1..N, and report median and quartiles per metric")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	if steady > 0 {
		os.Exit(steadyRuns(o, steady))
	}
	os.Exit(runOnce(o))
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce is one run of one workload. It returns the exit code: 0 for
// a correct run, 1 otherwise (the JSON line is printed only when the
// run got as far as measuring).
func runOnce(o options) int {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, wallLimit)
	defer cancel()

	build := filepath.Join(o.root, ".bench_build")
	serveBin := filepath.Join(build, "bin", "serve")
	if err := buildServe(ctx, o.root, serveBin); err != nil {
		return fail(err)
	}
	runs := filepath.Join(build, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(runs, o.workload+"-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	out, err := measure(ctx, o, serveBin, work, filepath.Join(build, "traces"), os.Stdout)
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// measure runs one workload against serveBin, with work as its scratch
// directory and spans written under traceDir, and prints the report
// to w. Every server it starts has exited when it returns.
func measure(ctx context.Context, o options, serveBin, work, traceDir string, w io.Writer) (*result, error) {
	wl, err := newWorkload(o.workload, o.scale)
	if err != nil {
		return nil, err
	}
	fl := &fleet{bin: serveBin, logDir: work}
	defer fl.stopAll()

	e := &env{work: work, seed: o.seed, fleet: fl, hc: newClient(wl.clients())}
	if err := wl.prepare(e); err != nil {
		return nil, fmt.Errorf("preparing %s: %w", o.workload, err)
	}

	// Set-up, several times: each attempt is a fresh set of servers. The
	// last few each serve a segment of the timed window; the last stays
	// up for the traced replay.
	var setups []float64
	var nodes []*node
	warmup, res := newLoopResult(0), newLoopResult(0)
	var rss float64 // the largest segment's
	for i := range setupRuns {
		t0 := time.Now()
		nodes, err = wl.boot(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i >= setupRuns-segments {
			src := wl.source(nodes)
			warmup.add(closedLoop(ctx, e.hc, src, wl.clients(), warmupWindow/segments))
			res.add(closedLoop(ctx, e.hc, src, wl.clients(), time.Duration(o.seconds)*time.Second/segments))
			if ctx.Err() != nil {
				return nil, fmt.Errorf("interrupted: %w", ctx.Err())
			}
			var sum float64
			for _, n := range nodes {
				mb, err := peakRSSMB(n)
				if err != nil {
					return nil, fmt.Errorf("reading peak RSS of %s: %w", n.id, err)
				}
				sum += mb
			}
			rss = max(rss, sum)
		}
		if i < setupRuns-1 {
			for _, n := range nodes {
				fl.stop(n)
			}
		}
	}

	var layers *layerReport
	var rep *replayer
	if o.trace {
		rep = newReplayer(time.Duration(o.seconds)*time.Second/2, res)
		if err := wl.replay(ctx, e, nodes, rep); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", o.workload, err)
		}
		gen, err := generateMs(wl.scale())
		if err != nil {
			return nil, err
		}
		layers = rep.finish(gen)
	}
	fl.stopAll()

	out := &result{
		Attempted: res.attempted + warmup.attempted,
		Failed:    res.failed + warmup.failed,
		Metrics:   map[string]value{},
	}
	out.Correct = out.Failed == 0 && res.completed() > 0 && (rep == nil || rep.mismatches == 0)

	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, line := range hostBlock(o.root, serveBin, work) {
		fmt.Fprintln(w, "  "+line)
	}
	e2e := e2eMetrics(res, setups)
	printE2E(w, res, warmup, wl.clients(), wl.tail(), setups, e2e, rss)
	if layers == nil {
		for _, m := range endToEnd {
			out.Metrics[m.Name] = value{e2e[m.Name], m.Unit}
		}
		return out, nil
	}
	printLayers(w, layers)
	if rep.mismatches > 0 {
		fmt.Fprintf(w, "  REPLAY MISMATCH: %d answers; first: %s\n", rep.mismatches, rep.firstMiss)
	}
	spans := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := rep.writeSpans(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  spans: %d written to %s\n", len(rep.spans), spans)
	for _, m := range perLayer {
		out.Metrics[m.Name] = value{layers.values[m.Name], m.Unit}
	}
	return out, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// e2eMetrics computes the end-to-end metrics of one run: the timed
// ones over the requests' quiet times (see loopResult.quiet).
func e2eMetrics(res *loopResult, setups []float64) map[string]float64 {
	quiet := res.quiet()
	p50, _ := percentile(quiet, 0.5)
	p90, _ := percentile(quiet, 0.9)
	return map[string]float64{
		"quiet_p50_ms": p50,
		"quiet_p90_ms": p90,
		"setup_s":      median(setups),
	}
}

func printE2E(w io.Writer, res, warmup *loopResult, clients int, tail float64, setups []float64, m map[string]float64, rss float64) {
	fmt.Fprintf(w, "  end to end (closed loop, %d clients, %d completed in %v over %d server set-ups):\n", clients, res.completed(), res.window, segments)
	fmt.Fprintf(w, "    %-16s %12.3f 1/s\n", "throughput_rps", float64(res.completed())/res.window.Seconds())
	for _, p := range []float64{0.5, 0.9, 0.99} {
		name := fmt.Sprintf("p%d_ms", int(p*100+0.5))
		v, beyond := percentile(res.latencies, p)
		switch {
		case p == 0.5 || beyond >= minTail:
			fmt.Fprintf(w, "    %-16s %12.3f ms  (%d samples beyond)\n", name, v, beyond)
		case p == tail:
			fmt.Fprintf(w, "    %-16s %12.3f ms  (only %d samples beyond: below the %d-sample rule)\n", name, v, beyond, minTail)
		}
	}
	fmt.Fprintf(w, "    each request at its class's quiet time, the class's p%g latency (%d classes):\n", 100*quietQuantile, len(res.byClass))
	for _, name := range []string{"quiet_p50_ms", "quiet_p90_ms"} {
		fmt.Fprintf(w, "    %-16s %12.3f ms\n", name, m[name])
	}
	attempted, failed := res.attempted+warmup.attempted, res.failed+warmup.failed
	rate := 0.0
	if attempted > 0 {
		rate = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(w, "    %-16s %12.6f      (%d of %d failed", "error_rate", rate, failed, attempted)
	for kind, c := range res.byKind {
		fmt.Fprintf(w, "; %s %d", kind, c)
	}
	fmt.Fprintln(w, ")")
	if res.firstFail != "" {
		fmt.Fprintf(w, "    first failure: %s\n", res.firstFail)
	} else if warmup.firstFail != "" {
		fmt.Fprintf(w, "    first failure (warm-up): %s\n", warmup.firstFail)
	}
	fmt.Fprintf(w, "    %-16s %12.3f s   (median of %d: %s)\n", "setup_s", m["setup_s"], len(setups), fmtList(setups, "%.3f"))
	fmt.Fprintf(w, "    %-16s %12.1f MiB (summed VmHWM of one segment's servers, the largest)\n", "peak_rss_mb", rss)
}

func printLayers(w io.Writer, l *layerReport) {
	fmt.Fprintf(w, "  per layer (in-process replay of %d requests; _us = mean self time per request):\n", l.requests)
	for _, m := range perLayer {
		if v := l.values[m.Name]; v != 0 {
			fmt.Fprintf(w, "    %-34s %14.3f %s\n", m.Name, v, m.Unit)
		}
	}
	fmt.Fprintf(w, "    %-34s %14.3f us\n", "attributed (sum of layer _us)", l.attributed)
	fmt.Fprintf(w, "    %-34s %14.3f us  = e2e mean %.3f us - attributed\n", "transport_us (residual)", l.values["transport_us"], l.e2eMean)
	fmt.Fprintf(w, "    %-34s %14.3f us\n", "e2e median", l.e2eP50)
	fmt.Fprintf(w, "    %-34s %14.3f us  (median per request of traced minus untraced replay)\n", "tracing overhead", l.overhead)
}

func fmtList(v []float64, f string) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(s, " ")
}
