package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"eden/internal/experiments"
	"eden/internal/metrics"
	"eden/internal/netsim"
	"eden/internal/trace"
)

// sim-fig9: experiments.RunFig9 at one fixed reduced configuration, on a
// pool of nproc trial workers. Each configuration is 6 cells x fig9Runs
// trials; the run repeats the configuration with the next seed until the
// measured time is up.
const (
	fig9Runs     = 2
	fig9Duration = 40 * netsim.Millisecond
)

func fig9Config(seed int64) experiments.Fig9Config {
	cfg := experiments.DefaultFig9Config()
	cfg.Runs = fig9Runs
	cfg.Duration = fig9Duration
	cfg.Seed = seed
	return cfg
}

type simFixture struct {
	seed   int64
	traced bool
}

func setupSimFig9(seed int64, traced bool) (fixture, error) {
	experiments.SetParallelism(runtime.NumCPU())
	f := &simFixture{seed: seed, traced: traced}
	// Warm-up: one short configuration loads code and grows the heap.
	cfg := fig9Config(seed * 1000)
	cfg.Duration = 5 * netsim.Millisecond
	experiments.RunFig9(cfg)
	return f, nil
}

func (f *simFixture) close() {}

// checkFig9 checks the figure's properties: native and EDEN cells are
// identical for PIAS and SFF, both cut small-flow FCT below baseline,
// and flow counts agree across the PIAS and SFF cells.
func checkFig9(r *experiments.Fig9Result) string {
	S := experiments.SchemeBaseline
	for _, s := range []experiments.Scheme{experiments.SchemePIAS, experiments.SchemeSFF} {
		for _, cls := range []map[experiments.Scheme]map[experiments.Mode]experiments.Fig9Cell{r.Small, r.Inter} {
			if n, e := cls[s][experiments.ModeNative], cls[s][experiments.ModeEden]; n != e {
				return fmt.Sprintf("%v: native %+v and EDEN %+v cells differ", s, n, e)
			}
		}
	}
	// Both schemes see the same arrivals (same seeds); a cell counts the
	// flows that completed inside the simulated window, so the counts may
	// differ only by flows that arrived near its end.
	for i, cls := range []map[experiments.Scheme]map[experiments.Mode]experiments.Fig9Cell{r.Small, r.Inter} {
		p, q := cls[experiments.SchemePIAS][experiments.ModeEden].Flows, cls[experiments.SchemeSFF][experiments.ModeEden].Flows
		if p == 0 || q == 0 || math.Abs(float64(p-q)) > 2+0.05*math.Max(float64(p), float64(q)) {
			return fmt.Sprintf("%s flow counts disagree: PIAS %d, SFF %d", []string{"small", "intermediate"}[i], p, q)
		}
	}
	base := r.Small[S][experiments.ModeEden].AvgUsec
	for _, s := range []experiments.Scheme{experiments.SchemePIAS, experiments.SchemeSFF} {
		if r.Small[s][experiments.ModeEden].AvgUsec >= base {
			return fmt.Sprintf("%v small flows not faster than baseline", s)
		}
	}
	return ""
}

func (f *simFixture) run(rc *runCtx) *outcome {
	o := &outcome{}
	var walls, cpu []float64
	t0 := time.Now()
	for i := int64(0); i == 0 || time.Since(t0) < rc.dur; i++ {
		cfg := fig9Config(f.seed*1000 + 1 + i*fig9Runs)
		if f.traced && i == 0 {
			cfg.Metrics = metrics.NewSet()
			cfg.Tracer = trace.NewTracerEvery(1<<12, 64)
		}
		_, sp := rc.spans.root("experiments.RunFig9")
		c0 := time.Now()
		u0, s0 := cpuTimes()
		res := experiments.RunFig9(cfg)
		u1, s1 := cpuTimes()
		walls = append(walls, time.Since(c0).Seconds())
		cpu = append(cpu, float64((u1-u0+s1-s0).Nanoseconds())/1e3/(6*fig9Runs))
		rc.spans.end(sp)
		o.attempted += 6 * fig9Runs
		if err := checkFig9(res); err != "" {
			o.failf("seed %d: %s", cfg.Seed, err)
		}
	}
	var rates []float64
	for _, w := range walls {
		rates = append(rates, 6*fig9Runs/w)
	}
	o.opsPerSec = median(rates)
	o.cpuPerOpUs = median(cpu)
	o.latencyUs = median(walls) * 1e6
	o.addRef("sim_fig9_s", median(walls), "s", len(walls))
	return o
}
