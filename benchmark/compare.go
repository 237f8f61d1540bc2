package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// The comparator reads two sets of runs, the parent's and the change's,
// and prints one row per workload and end-to-end metric. A run set is a
// text file; each run is one line "RESULT <workload> <result JSON>", as
// `--workload all` prints them. Other lines are ignored. The i-th run of
// a workload in one set is paired with the i-th run of it in the other,
// so record both sets with the same seeds in the same order.
//
//	eden-bench compare PARENT CHANGE
//
// Metrics, directions and bounds come from BENCHMARK.json.
// It exits 1 on any "worse" verdict, on any rise in the share of failed
// operations, and on any incorrect run in the change's set.

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	return spec, err
}

// checkSpec reports a metric the run printed that the spec does not name
// with the same unit, or one the spec names that the run did not print.
func checkSpec(want []specMetric, got map[string]metric) error {
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		if g.Unit != m.Unit {
			return fmt.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics measured, BENCHMARK.json names %d", len(got), len(want))
	}
	return nil
}

// runSet maps a workload to its runs in file order.
type runSet map[string][]*result

func readRunSet(r io.Reader) (runSet, error) {
	rs := runSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "RESULT ")
		if !ok {
			continue
		}
		name, js, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, fmt.Errorf("malformed RESULT line %q", sc.Text())
		}
		var res result
		if err := json.Unmarshal([]byte(js), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rs[name] = append(rs[name], &res)
	}
	return rs, sc.Err()
}

// pyQuartiles returns the quartiles the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// verdict judges one metric on one workload from paired runs. The change
// improved (or got worse) when it won (lost) at least 9 of 10 pairs and
// the medians differ by more than the parent's interquartile spread;
// "worse" also needs the gap to exceed the metric's bound. Anything else
// is unresolved.
type verdict struct {
	parentQ, changeQ [3]float64
	won, lost, pairs int
	gap              float64 // (change - parent) / parent median, signed
	verdict          string
}

func judge(parent, change []float64, lowerBetter bool, bound float64) verdict {
	var v verdict
	v.parentQ[0], v.parentQ[1], v.parentQ[2] = pyQuartiles(parent)
	v.changeQ[0], v.changeQ[1], v.changeQ[2] = pyQuartiles(change)
	v.pairs = len(parent)
	if len(change) < v.pairs {
		v.pairs = len(change)
	}
	for i := 0; i < v.pairs; i++ {
		d := change[i] - parent[i]
		if lowerBetter {
			d = -d
		}
		switch {
		case d > 0:
			v.won++
		case d < 0:
			v.lost++
		}
	}
	pm, cm := v.parentQ[1], v.changeQ[1]
	if pm != 0 {
		v.gap = (cm - pm) / math.Abs(pm)
	}
	better := cm < pm
	if !lowerBetter {
		better = cm > pm
	}
	iqr := v.parentQ[2] - v.parentQ[0]
	beyondSpread := math.Abs(cm-pm) > iqr
	consistent := func(n int) bool { return v.pairs > 0 && 10*n >= 9*v.pairs }
	switch {
	case better && consistent(v.won) && beyondSpread:
		v.verdict = "improved"
	case !better && consistent(v.lost) && beyondSpread && math.Abs(v.gap) > bound:
		v.verdict = "worse"
	default:
		v.verdict = "unresolved"
	}
	return v
}

func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: eden-bench compare PARENT CHANGE")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	var sets [2]runSet
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 2
		}
		sets[i], err = readRunSet(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", path, err)
			return 2
		}
	}
	return compareSets(sets[0], sets[1], spec, w)
}

// compareSets prints the comparison table and returns the exit status.
func compareSets(parent, change runSet, spec benchSpec, w io.Writer) int {
	status := 0
	var names []string
	for n := range parent {
		if _, ok := change[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-16s %6s %27s %27s %7s %8s  %s\n",
		"workload", "metric", "pairs", "parent q1/median/q3", "change q1/median/q3", "gap", "won", "verdict")
	for _, name := range names {
		p, c := parent[name], change[name]
		for _, r := range c {
			if !r.Correct {
				fmt.Fprintf(w, "%-12s change has an incorrect run\n", name)
				status = 1
				break
			}
		}
		for _, m := range spec.EndToEnd {
			var pv, cv []float64
			for _, r := range p {
				pv = append(pv, r.Metrics[m.Name].Value)
			}
			for _, r := range c {
				cv = append(cv, r.Metrics[m.Name].Value)
			}
			v := judge(pv, cv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-12s %-16s %6d %9.4g/%8.4g/%8.4g %9.4g/%8.4g/%8.4g %+6.1f%% %3d/%-4d  %s\n",
				name, m.Name, v.pairs, v.parentQ[0], v.parentQ[1], v.parentQ[2],
				v.changeQ[0], v.changeQ[1], v.changeQ[2], 100*v.gap, v.won, v.pairs, v.verdict)
			if v.verdict == "worse" {
				status = 1
			}
		}
		ps, cs := failedShare(p), failedShare(c)
		fmt.Fprintf(w, "%-12s %-16s parent %.6f change %.6f\n", name, "failed share", ps, cs)
		if cs > ps {
			status = 1
		}
	}
	return status
}

func failedShare(rs []*result) float64 {
	var a, f int64
	for _, r := range rs {
		a += r.Attempted
		f += r.Failed
	}
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}
