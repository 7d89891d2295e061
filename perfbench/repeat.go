package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the untraced benchmark k times in child processes, one
// after another with seeds seed, seed+1, …, and prints each end-to-end
// metric's median, quartiles and spread (interquartile distance as a
// share of the median), the figures a benchmark's steadiness is judged
// by.
func repeatRuns(c *config, k int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var order []string
	for i := 0; i < k; i++ {
		seed := c.seed + int64(i)
		cmd := exec.Command(exe, "--workload", c.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(int(c.seconds.Seconds())), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Correct bool              `json:"correct"`
			Failed  int               `json:"failed"`
			Metrics map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: result line: %w", seed, err)
		}
		fmt.Printf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		for _, l := range lines {
			if strings.HasPrefix(l, "iterations=") {
				fmt.Printf(" %s", l)
			}
		}
		fmt.Println()
		for name, m := range res.Metrics {
			if _, ok := units[name]; !ok {
				order = append(order, name)
				units[name] = m.Unit
			}
			values[name] = append(values[name], m.Value)
		}
	}
	sort.Strings(order)
	fmt.Printf("%-22s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, name := range order {
		xs := values[name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-22s %12.6g %12.6g %12.6g %7.2f%% %s\n", name, med, q1, q3, spread*100, units[name])
	}
	return nil
}
