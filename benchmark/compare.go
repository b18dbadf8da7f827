package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runSet is the runs found in one file: workload -> metric -> values.
type runSet map[string]map[string][]float64

// parseRuns reads concatenated run outputs. A "# workload=<name> ..."
// line names the workload of the result object that follows it.
func parseRuns(r io.Reader) (runSet, error) {
	set := runSet{}
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# workload="); ok {
			workload, _, _ = strings.Cut(rest, " ")
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return nil, fmt.Errorf("result line of %q: %w", workload, err)
		}
		if workload == "" {
			return nil, fmt.Errorf("result line with no \"# workload=\" line before it")
		}
		if set[workload] == nil {
			set[workload] = map[string][]float64{}
		}
		for name, m := range res.Metrics {
			set[workload][name] = append(set[workload][name], m.Value)
		}
		workload = ""
	}
	return set, sc.Err()
}

func parseRunFile(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set, err := parseRuns(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the default, exclusive
// method), which is what the acceptance procedure uses. It needs two
// values; with fewer all three are the single value (or 0).
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// compareFiles prints, per workload and metric, each side's median and
// interquartile spread (as a share of the median), how much worse b is
// than a, and the metric's bound; it flags what falls outside it.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := parseRunFile(pathA)
	if err != nil {
		return err
	}
	b, err := parseRunFile(pathB)
	if err != nil {
		return err
	}
	gate := map[string]metricDef{}
	for _, d := range endToEnd {
		gate[d.name] = d
	}
	fmt.Fprintf(w, "a = %s\nb = %s\nworse = how much worse b's median is than a's, as a share of a's (negative: better)\n", pathA, pathB)
	for _, wl := range sortedKeys(a) {
		if b[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n%-34s %4s %12s %8s %12s %8s %8s %6s\n", wl,
			"metric", "n", "a median", "a iqr", "b median", "b iqr", "worse", "bound")
		for _, name := range sortedKeys(a[wl]) {
			va, vb := a[wl][name], b[wl][name]
			if len(vb) == 0 {
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spreadA, spreadB := ratio(a3-a1, am), ratio(b3-b1, bm)
			fmt.Fprintf(w, "%-34s %4d %12.6g %7.1f%% %12.6g %7.1f%%", name,
				min(len(va), len(vb)), am, 100*spreadA, bm, 100*spreadB)
			d, gated := gate[name]
			if !gated {
				fmt.Fprintf(w, " %+7.1f%%\n", 100*ratio(bm-am, am))
				continue
			}
			worse := ratio(bm-am, am)
			if d.better == "higher" {
				worse = -worse
			}
			flag := ""
			switch {
			case worse > d.bound:
				flag = "  WORSE"
			case name != "setup_s" && max(spreadA, spreadB) > d.bound:
				flag = "  NOISY"
			}
			fmt.Fprintf(w, " %+7.1f%% %5.0f%%%s\n", 100*worse, 100*d.bound, flag)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
