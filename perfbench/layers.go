package main

import "time"

// windowSpans maps every span a job makes inside its wall time to the
// per-layer self-time metric it feeds. The job's root span is the
// benchmark's own code between those calls: sweep bookkeeping, output
// formatting and the output checks.
var windowSpans = map[string]string{
	"perfbench.job":    "perfbench.self_s",
	"topology.build":   "topology.build_s",
	"scenario.load":    "scenario.load_s",
	"scenario.expand":  "scenario.expand_s",
	"scenario.compile": "scenario.compile_s",
	"scenario.sweep":   "scenario.sweep_s",
	"sweepexec.run":    "sweepexec.run_s",
	"netsim.plan":      "netsim.plan_s",
	"netsim.run":       "netsim.run_s",
	"results.write":    "results.write_s",
}

// layers computes a traced job's per-layer metrics from its spans.
func (j *job) layers() map[string]float64 {
	self, probe := j.tr.selfTimes()
	m := map[string]float64{}
	sum := 0.0
	for name, metric := range windowSpans {
		m[metric] = self[name]
		sum += self[name]
	}
	// A sweep job's engine calls sit inside its scheduler call, so its
	// netsim timings come from the replay probe.
	m["netsim.run_s"] += probe["netsim.run"]
	m["netsim.construct_s"] = probe["netsim.construct"]
	m["scenario.fair_timeline_s"] = probe["scenario.fair_timeline"]
	m["trace.self_sum_s"] = sum
	m["trace.wall_s"] = j.rec.Wall
	m["trace.probe_s"] = 0
	for _, s := range probe {
		m["trace.probe_s"] += s
	}

	job, _ := j.tr.sum("perfbench.job")
	eng, engWall := j.tr.sum(j.engineSpan)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["topology.links"] = float64(j.links)
	m["topology.receivers"] = float64(j.receivers)
	m["scenario.points"] = float64(j.points)

	m["netsim.runs"] = float64(job[cRuns])
	m["netsim.events"] = float64(job[cEvents])
	m["netsim.transmissions"] = float64(job[cTransmissions])
	m["netsim.calendar_ticks"] = float64(job[cTicks])
	m["netsim.crossings"] = float64(job[cCrossings])
	m["netsim.drops"] = float64(job[cDrops])
	m["netsim.deliveries"] = float64(job[cDeliveries])
	m["netsim.forward_events"] = float64(job[cForward])
	m["netsim.churn_events"] = float64(job[cChurn])
	m["netsim.signal_events"] = float64(job[cSignal])
	m["netsim.probe_windows"] = float64(job[cProbeWindows])
	m["netsim.probe_dropped"] = float64(job[cProbeDropped])
	m["netsim.heap_high_water"] = float64(j.stats.HeapHighWater.Load())
	m["netsim.drop_ratio"] = ratio(float64(job[cDrops]), float64(job[cCrossings]))
	m["netsim.deliveries_per_transmission"] = ratio(float64(job[cDeliveries]), float64(job[cTransmissions]))
	m["netsim.runner.wait_s"] = j.runnerWait.Seconds()

	m["netsim.plan_bytes"], m["netsim.plan_to_rss"] = 0, 0
	m["netsim.shard.groups"], m["netsim.shard.subtrees"], m["netsim.shard.cut_frontier"] = 0, 0, 0
	if j.plan != nil {
		m["netsim.plan_bytes"] = float64(j.plan.Total)
		m["netsim.plan_to_rss"] = ratio(float64(j.plan.Total), float64(j.rec.PeakRSS))
		m["netsim.shard.groups"] = float64(j.plan.Groups)
		m["netsim.shard.subtrees"] = float64(j.plan.Subtrees)
		m["netsim.shard.cut_frontier"] = float64(j.plan.CutFrontier)
	}
	m["netsim.shard.cpu_per_wall"] = ratio(float64(eng[cCPUNs]), float64(engWall))
	m["netsim.shard.speedup"] = j.speedup

	m["results.shard_bytes"] = float64(j.shardBytes)
	m["sweepexec.checkpoint_bytes"] = float64(j.ckptBytes)

	m["go.mallocs_per_event"] = ratio(float64(job[cMallocs]), float64(job[cEvents]))
	m["go.gc_cycles"] = float64(job[cGCCycles])
	m["go.gc_pause_s"] = time.Duration(job[cGCPauseNs]).Seconds()
	m["go.heap_sys_bytes"] = float64(j.heapSys)
	return m
}
