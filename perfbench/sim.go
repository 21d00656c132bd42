package main

import (
	"fmt"
	"runtime"
	"time"

	"eevfs/internal/cluster"
	"eevfs/internal/telemetry"
	"eevfs/internal/trace"
	"eevfs/internal/workload"
)

// simTrace is one generated trace of the sim-testbed part.
type simTrace struct {
	name  string
	tr    *trace.Trace
	reads int
}

// genTraces generates the Table II default point, DefaultDrift and
// BerkeleyWeb traces, each with n requests and the given seed.
func genTraces(seed uint64, n int) ([]simTrace, error) {
	syn := workload.DefaultSynthetic()
	syn.NumRequests, syn.Seed = n, seed
	dr := workload.DefaultDrift()
	dr.NumRequests, dr.Seed = n, seed
	bw := workload.DefaultBerkeleyWeb()
	bw.NumRequests, bw.Seed = n, seed
	var out []simTrace
	for _, g := range []struct {
		name string
		gen  func() (*trace.Trace, error)
	}{
		{"table2", func() (*trace.Trace, error) { return workload.Synthetic(syn) }},
		{"drift", func() (*trace.Trace, error) { return workload.Drift(dr) }},
		{"berkeley", func() (*trace.Trace, error) { return workload.BerkeleyWeb(bw) }},
	} {
		tr, err := g.gen()
		if err != nil {
			return nil, fmt.Errorf("generating %s trace: %w", g.name, err)
		}
		st := simTrace{name: g.name, tr: tr}
		for _, r := range tr.Records {
			if r.Op == trace.Read {
				st.reads++
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// simArms are the three policy arms, in run order.
var simArms = []struct {
	name string
	cfg  func(cluster.Config) cluster.Config
}{
	{"npf", cluster.Config.NPF},
	{"pf", func(c cluster.Config) cluster.Config { return c }},
	{"adaptive", cluster.Config.AdaptiveArm},
}

// simModel is the deterministic output of one sim-testbed part.
type simModel struct {
	EnergyPFJ, EnergyAdaptiveJ, EnergyNPFJ float64
	TransitionsPF                          int
	RespMeanPFSum                          float64 // summed over the traces
	HitsPF, MissesPF                       int64
	Reprefetches, BudgetVetoes             int
}

// runSim generates the three traces (each with n requests) setupReps
// times, timing each generation, then runs every trace through the NPF,
// PF and adaptive arms, rounds times over the same traces. Each round
// must reproduce the model outputs of the first. Every cluster.Run
// starts from a collected heap, and the simulated-request rate is one
// round's requests over the sum, across trace and arm, of each run's
// best time over the rounds, scaled like every other time (probe.go):
// the host's other work only ever slows a run down, so the fastest of
// several identical runs is the one that repeats.
func runSim(seed uint64, n, rounds, setupReps int, traced bool) (*partOut, simModel, error) {
	out := newPartOut()
	var model simModel
	var traces []simTrace
	var gens []float64
	w := startWatch() // as for the TCP set-up (see setUp)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		ts, err := genTraces(seed, n)
		if err != nil {
			w.stop()
			return nil, model, err
		}
		traces = ts
		gens = append(gens, time.Since(t0).Seconds())
		out.span("setup.workload.gen", t0)
	}
	_, steal, scale := w.stop()
	for i := range gens {
		gens[i] *= keep(steal, scale)
	}
	out.set("setup_s", median(gens), len(gens))
	out.layer("workload.gen_ms", median(gens)*1000)

	var pfReg *telemetry.Registry
	if traced {
		pfReg = telemetry.NewRegistry()
	}
	var (
		best         = make([]time.Duration, len(traces)*len(simArms))
		roundReqs    int
		simulated    int
		ms0, ms1     runtime.MemStats
		mallocs, tot uint64
	)
	w = startWatch()
	for r := 0; r < rounds; r++ {
		var round simModel
		roundReqs = 0
		for ti, st := range traces {
			var npfJ float64
			for ai, arm := range simArms {
				cfg := arm.cfg(cluster.DefaultTestbed())
				if arm.name == "pf" {
					cfg.Metrics = pfReg
				}
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				res, err := cluster.Run(cfg, st.tr)
				d := time.Since(t0)
				runtime.ReadMemStats(&ms1)
				if err != nil {
					return nil, model, fmt.Errorf("cluster.Run %s/%s round %d: %w", st.name, arm.name, r, err)
				}
				out.span(fmt.Sprintf("cluster.run.%s.%s.%d", arm.name, st.name, r), t0)
				if i := ti*len(simArms) + ai; r == 0 || d < best[i] {
					best[i] = d
				}
				roundReqs += res.Requests
				mallocs += ms1.Mallocs - ms0.Mallocs
				tot += ms1.TotalAlloc - ms0.TotalAlloc

				where := fmt.Sprintf("%s/%s round %d", st.name, arm.name, r)
				if res.TotalEnergyJ != res.BaseEnergyJ+res.DiskEnergyJ {
					out.fail("%s: total energy %g J != base %g J + disk %g J",
						where, res.TotalEnergyJ, res.BaseEnergyJ, res.DiskEnergyJ)
				}
				if got := res.BufferHits + res.BufferMisses; got != int64(st.reads) {
					out.fail("%s: buffer hits+misses %d != %d reads", where, got, st.reads)
				}
				switch arm.name {
				case "npf":
					npfJ = res.TotalEnergyJ
					round.EnergyNPFJ += res.TotalEnergyJ
				case "pf":
					round.EnergyPFJ += res.TotalEnergyJ
					round.TransitionsPF += res.Transitions
					round.RespMeanPFSum += res.Response.Mean
					round.HitsPF += res.BufferHits
					round.MissesPF += res.BufferMisses
					if st.name == "table2" && res.TotalEnergyJ > npfJ {
						out.fail("%s: PF energy %g J exceeds NPF %g J", where, res.TotalEnergyJ, npfJ)
					}
				case "adaptive":
					round.EnergyAdaptiveJ += res.TotalEnergyJ
					round.Reprefetches += res.AdaptiveReprefetches
					round.BudgetVetoes += res.AdaptiveBudgetVetoes
				}
			}
		}
		if r == 0 {
			model = round
		} else if round != model {
			out.fail("round %d model outputs %+v differ from round 0's %+v", r, round, model)
		}
		simulated += roundReqs
	}
	_, steal, speed := w.stop()
	out.layer("host.steal_frac", steal)
	out.layer("host.speed_scale", speed)
	var bestSum time.Duration
	armMs := map[string]float64{}
	k := keep(steal, speed) // as for the TCP parts
	for i, d := range best {
		d = time.Duration(float64(d) * k)
		bestSum += d
		armMs[simArms[i%len(simArms)].name] += d.Seconds() * 1000
	}
	out.attempted = int64(simulated)
	// A simulated request fails only by breaking an invariant, which
	// makes the whole run incorrect instead.
	out.layer("error_frac", 1/float64(simulated+2))
	out.rate = float64(roundReqs) / bestSum.Seconds()
	out.notes = append(out.notes, fmt.Sprintf("sim: %d rounds of %d requests; host took %.1f%% of the CPU time the VM wanted; speed scale %.3f",
		rounds, roundReqs, 100*steal, speed))
	out.set("sim_req_per_s", out.rate, rounds)
	out.set("energy_pf_kj", model.EnergyPFJ/1000, len(traces))
	out.set("energy_adaptive_kj", model.EnergyAdaptiveJ/1000, len(traces))
	out.set("transitions_pf", float64(model.TransitionsPF), len(traces))
	out.set("resp_mean_pf_s", model.RespMeanPFSum, len(traces))

	for _, arm := range simArms {
		out.layer("cluster.run_ms."+arm.name, armMs[arm.name])
	}
	out.layer("cluster.allocs_per_req", float64(mallocs)/float64(simulated))
	out.layer("cluster.alloc_bytes_per_req", float64(tot)/float64(simulated))
	if hm := model.HitsPF + model.MissesPF; hm > 0 {
		out.layer("sim.hit_ratio_pf", float64(model.HitsPF)/float64(hm))
	}
	if pfReg != nil {
		snap := pfReg.Snapshot()
		out.snapshots["sim.pf"] = snap
		if h, ok := snap.Histograms["sim.queue.wait.seconds"]; ok && h.Count > 0 {
			out.layer("sim.queue_wait_p99_s_pf", h.Quantile(0.99))
		}
	}
	out.layer("adaptive.reprefetches", float64(model.Reprefetches))
	out.layer("adaptive.budget_vetoes", float64(model.BudgetVetoes))
	return out, model, nil
}
