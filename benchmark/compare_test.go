package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

func series(base, step float64) []float64 {
	var xs []float64
	for i := 0; i < 10; i++ {
		xs = append(xs, base+step*float64(i%5))
	}
	return xs
}

func TestJudgeClearWin(t *testing.T) {
	parent := series(100, 1) // 100..104
	change := series(80, 1)  // 80..84, lower is better
	if v := judge(parent, change, true, 0.1); v.verdict != "improved" {
		t.Fatalf("clear win judged %s (%+v)", v.verdict, v)
	}
	// The same figures for a higher-is-better metric are a clear loss.
	if v := judge(parent, change, false, 0.1); v.verdict != "worse" {
		t.Fatalf("clear loss judged %s (%+v)", v.verdict, v)
	}
}

func TestJudgeLossWithinBound(t *testing.T) {
	parent := series(100, 0.1)
	change := series(103, 0.1) // consistently 3% worse, bound 10%
	if v := judge(parent, change, true, 0.1); v.verdict != "unresolved" {
		t.Fatalf("loss within the bound judged %s", v.verdict)
	}
}

func TestJudgeOverlap(t *testing.T) {
	parent := []float64{100, 120, 90, 110, 95, 105, 115, 85, 100, 108}
	change := []float64{104, 111, 92, 118, 90, 101, 119, 88, 97, 112}
	if v := judge(parent, change, true, 0.1); v.verdict != "unresolved" {
		t.Fatalf("overlapping spreads judged %s", v.verdict)
	}
}

func TestCompareSetsExitStatus(t *testing.T) {
	spec := benchSpec{EndToEnd: []specMetric{{"latency_us_p50", "us", "lower", 0.1}}}
	mk := func(vals []float64, failed int64) runSet {
		var rs []*result
		for _, v := range vals {
			rs = append(rs, &result{Correct: true, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"latency_us_p50": {v, "us"}}})
		}
		return runSet{"ctl-sync": rs}
	}
	var out bytes.Buffer
	if st := compareSets(mk(series(100, 1), 1), mk(series(100, 1), 1), spec, &out); st != 0 {
		t.Fatalf("identical sets: status %d\n%s", st, out.String())
	}
	if st := compareSets(mk(series(100, 1), 1), mk(series(130, 1), 1), spec, &out); st != 1 {
		t.Fatalf("worse set: status %d", st)
	}
	if st := compareSets(mk(series(100, 1), 1), mk(series(100, 1), 2), spec, &out); st != 1 {
		t.Fatalf("more failures: status %d", st)
	}
}

func TestReadRunSet(t *testing.T) {
	in := "noise\nRESULT sim-fig9 {\"correct\":true,\"attempted\":24,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n"
	rs, err := readRunSet(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if r := rs["sim-fig9"]; len(r) != 1 || r[0].Metrics["setup_s"].Value != 0.5 {
		t.Fatalf("parsed %+v", rs)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]metric{}
	for _, m := range spec.EndToEnd {
		got[m.Name] = metric{1, m.Unit}
	}
	if err := checkSpec(spec.EndToEnd, got); err != nil {
		t.Fatal(err)
	}
	got["extra"] = metric{1, "s"}
	if checkSpec(spec.EndToEnd, got) == nil {
		t.Error("an unnamed metric was accepted")
	}
}
