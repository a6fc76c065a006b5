package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// steadyRuns is the steadiness report: each named workload runs n
// times as a child process, with seeds 1..n, and every end-to-end
// metric is summarized by its median and quartiles. The spread — the
// interquartile distance as a share of the median — is judged against
// the bound BENCHMARK.json gives the metric: a benchmark is steady
// when every spread (setup_s excepted) stays below a third of it.
func steadyRuns(o options, n int) int {
	names := workloadNames
	if o.workload != "" && o.workload != "all" {
		names = strings.Split(o.workload, ",")
	}
	bounds, err := readBounds(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("perfbench steadiness: %d runs per workload, %d s each\n", n, o.seconds)
	for _, line := range hostBlock(o.root, filepath.Join(o.root, ".bench_build", "bin", "serve"), o.root) {
		fmt.Println("  " + line)
	}
	steady := true
	for _, name := range names {
		values := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			res, err := childRun(self, o, name, seed)
			if err != nil {
				return fail(fmt.Errorf("%s seed %d: %w", name, seed, err))
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("%s:\n", name)
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "(spread not bounded)"
			case spread > bounds[m.Name]:
				verdict, steady = "OUTSIDE BOUND", false
			case spread > bounds[m.Name]/3:
				verdict = "above a third of the bound"
			}
			fmt.Printf("  %-15s median %10.3f %-4s Q1 %10.3f Q3 %10.3f spread %6.2f%% of bound %4.0f%%  %s\n",
				m.Name, q2, m.Unit, q1, q3, 100*spread, 100*bounds[m.Name], verdict)
			fmt.Printf("  %-15s runs: %s\n", "", fmtList(values[m.Name], "%.4g"))
		}
	}
	if !steady {
		return 1
	}
	return 0
}

// childRun runs one untraced benchmark run and parses its last line.
func childRun(self string, o options, name string, seed int) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(o.seconds), "--trace", "0")
	cmd.Dir = o.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run failed: %w\n%s", err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("incorrect run:\n%s", out)
	}
	return &res, nil
}

// readBounds reads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
