package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"apichecker"
)

// def is one reported metric as BENCHMARK.json lists it. For a per-layer
// metric, moves names the end-to-end metric it should move and on which
// workloads: the map a claimed gain is checked against.
type def struct {
	name, unit, better, moves string
}

var endToEndDefs = []def{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "success_ratio", unit: "ratio", better: "higher"},
	{name: "rss_peak_mb", unit: "MB", better: "lower"},
	{name: "precision", unit: "ratio", better: "higher"},
	{name: "recall", unit: "ratio", better: "higher"},
	{name: "virtual_scan_s_mean", unit: "s", better: "lower"},
}

var perLayerDefs = []def{
	{"gateway.admit_ms.p50", "ms", "lower", "latency_p50_ms on fresh and cluster-tiered"},
	{"gateway.join_ms.p50", "ms", "lower", "throughput_per_s and latency_p50_ms on resubmit"},
	{"gateway.join_ms.p99", "ms", "lower", "latency_p99_ms on resubmit"},
	{"gateway.respond_ms.p50", "ms", "lower", "latency_p50_ms on every workload"},
	{"gateway.joined_ratio", "ratio", "higher", "throughput_per_s on resubmit"},
	{"workqueue.wait_ms.p50", "ms", "lower", "latency_p50_ms on fresh and cluster-tiered"},
	{"workqueue.wait_ms.p99", "ms", "lower", "latency_p99_ms on fresh and cluster-tiered"},
	{"workqueue.reclaimed", "count", "lower", "success_ratio on every workload"},
	{"workqueue.nacked", "count", "lower", "success_ratio on every workload"},
	{"workqueue.dead_lettered", "count", "lower", "success_ratio on every workload"},
	{"vetsvc.service_ms.p50", "ms", "lower", "throughput_per_s on fresh"},
	{"vetsvc.service_ms.p99", "ms", "lower", "latency_p99_ms on fresh"},
	{"vetsvc.lanes_busy", "lanes", "lower", "throughput_per_s on fresh"},
	{"pipeline.admit_ms.p50", "ms", "lower", "throughput_per_s on fresh"},
	{"pipeline.cache_lookup_ms.p50", "ms", "lower", "throughput_per_s on fresh"},
	{"pipeline.triage_ms.p50", "ms", "lower", "throughput_per_s on fresh and cluster-tiered"},
	{"pipeline.decode_ms.p50", "ms", "lower", "throughput_per_s on fresh and cluster-tiered"},
	{"pipeline.decode_ms.p99", "ms", "lower", "latency_p99_ms on fresh and cluster-tiered"},
	{"pipeline.emulate_ms.p50", "ms", "lower", "throughput_per_s on fresh"},
	{"pipeline.emulate_ms.p99", "ms", "lower", "latency_p99_ms on fresh"},
	{"pipeline.extract_ms.p50", "ms", "lower", "throughput_per_s on fresh"},
	{"pipeline.infer_ms.p50", "ms", "lower", "throughput_per_s on fresh"},
	{"emulator.runs", "count", "higher", "virtual_scan_s_mean on every workload"},
	{"emulator.fallbacks", "count", "lower", "success_ratio and virtual_scan_s_mean on fresh"},
	{"emulator.crashes", "count", "lower", "success_ratio and virtual_scan_s_mean on fresh"},
	{"vcache.hit_ratio", "ratio", "higher", "throughput_per_s on every workload (0 while the gateway answers repeats first)"},
	{"vcache.evictions", "count", "lower", "throughput_per_s on every workload"},
	{"triage.tier1_ratio", "ratio", "higher", "throughput_per_s and virtual_scan_s_mean on cluster-tiered"},
	{"cluster.node_vet_ms.p50", "ms", "lower", "throughput_per_s and latency_p50_ms on cluster-tiered"},
	{"cluster.wire_ms.p50", "ms", "lower", "throughput_per_s and latency_p50_ms on cluster-tiered"},
	{"cluster.wire_ms.p99", "ms", "lower", "latency_p99_ms on cluster-tiered"},
	{"cluster.claims", "count", "higher", "throughput_per_s on cluster-tiered"},
	{"cluster.nacks", "count", "lower", "success_ratio and latency_p99_ms on cluster-tiered"},
	{"cluster.reclaims", "count", "lower", "success_ratio and latency_p99_ms on cluster-tiered"},
	{"cluster.node_balance", "ratio", "higher", "throughput_per_s on cluster-tiered"},
	{"setup.usage_s", "s", "lower", "setup_s on every workload"},
	{"setup.fit_s", "s", "lower", "setup_s on every workload"},
	{"setup.serve_ready_s", "s", "lower", "setup_s on every workload"},
	{"setup.nodes_ready_s", "s", "lower", "setup_s on cluster-tiered"},
	{"runtime.alloc_bytes_per_req", "B", "lower", "throughput_per_s and latency_p99_ms on every workload"},
	{"runtime.mallocs_per_req", "count", "lower", "throughput_per_s and latency_p99_ms on every workload"},
	{"runtime.gc_cycles", "count", "lower", "latency_p99_ms on every workload"},
	{"bench.trace_overhead", "ratio", "lower", "none: traced against untraced throughput"},
	{"share.distinct", "ratio", "lower", "none: share of requests with new bytes"},
	{"share.joined", "ratio", "higher", "none: share of requests joining an existing record"},
	{"share.tier1", "ratio", "higher", "none: share of requests answered at tier 1"},
	{"share.vcache_hit", "ratio", "higher", "none: share of requests answered from the verdict cache"},
}

// latencyBlock is the number of consecutive completions per latency
// block: each block's p99 has ten samples beyond it.
const latencyBlock = 1000

// latencyStats summarises a window's round trips: the median over
// consecutive blocks of at least latencyBlock completions of each
// block's p50 and p99. Blocks make the figures robust to a brief stall
// of the host, which would otherwise decide a whole run's tail.
func latencyStats(w *window) (p50, p99 float64, samples, blocks int) {
	var ok []request
	for _, r := range w.reqs {
		if r.OK {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].Recv < ok[j].Recv })
	blocks = max(1, len(ok)/latencyBlock)
	var b50, b99 []float64
	for b := 0; b < blocks; b++ {
		part := ok[b*len(ok)/blocks : (b+1)*len(ok)/blocks]
		lat := make([]float64, len(part))
		for i, r := range part {
			lat[i] = float64(r.Recv-r.Send) / 1e6
		}
		sort.Float64s(lat)
		b50 = append(b50, quantile(lat, 0.50))
		b99 = append(b99, quantile(lat, 0.99))
	}
	return medianOf(b50), medianOf(b99), len(ok), blocks
}

// rate is a window's throughput: the median over its one-second slices
// of the verdicts completed in each.
func rate(w *window) float64 { return medianOf(sliceRates(w)) }

// sliceRates counts the verdicts completed in each one-second slice of
// the sending period.
func sliceRates(w *window) []float64 {
	slices := max(1, int((w.stop-w.start)/int64(time.Second)))
	counts := make([]float64, slices)
	for _, r := range w.reqs {
		if i := (r.Recv - w.start) / int64(time.Second); r.OK && i >= 0 && i < int64(slices) {
			counts[i]++
		}
	}
	return counts
}

// endToEnd derives the end-to-end metrics of an untraced window.
func endToEnd(m *measured, setups []setupTiming, failed, attempted int, q quality) map[string]metric {
	p50, p99, _, _ := latencyStats(m.win)
	return map[string]metric{
		"setup_s":             {median(setups, func(s setupTiming) float64 { return s.Total }), "s"},
		"throughput_per_s":    {rate(m.win), "1/s"},
		"latency_p50_ms":      {p50, "ms"},
		"latency_p99_ms":      {p99, "ms"},
		"success_ratio":       {1 - float64(failed)/float64(max(attempted, 1)), "ratio"},
		"rss_peak_mb":         {peakRSSMB(), "MB"},
		"precision":           {q.precision, "ratio"},
		"recall":              {q.recall, "ratio"},
		"virtual_scan_s_mean": {q.scanMean, "s"},
	}
}

// layerMetrics derives the per-layer metrics from the traced window's
// spans and counters; allocation counts come from the untraced window.
func layerMetrics(spans []span, traced, plain *measured, setups []setupTiming) map[string]metric {
	self := selfTimes(spans)
	durs := make(map[string][]float64)
	var busy int64
	service := make(map[int64]int64)
	for i, s := range spans {
		d := s.dur()
		if strings.HasPrefix(s.Name, "pipeline.") {
			d = self[i]
		}
		durs[s.Name] = append(durs[s.Name], float64(d)/1e6)
		if s.Name == "vetsvc.service" {
			busy += s.dur()
			service[s.Sub] = s.dur()
		}
	}
	// The wire is the service span minus the Vet call inside it.
	for _, s := range spans {
		if sd, ok := service[s.Sub]; ok && s.Name == "worker.vet" {
			durs["cluster.wire"] = append(durs["cluster.wire"], float64(sd-s.dur())/1e6)
		}
	}
	for _, v := range durs {
		sort.Float64s(v)
	}
	ms := func(name string, q float64) metric { return metric{quantile(durs[name], q), "ms"} }
	c := traced.counters
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	setup := func(f func(setupTiming) float64) metric { return metric{median(setups, f), "s"} }
	reqs := float64(max(len(plain.win.reqs), 1))
	joined, accepted := c["gw.submissions.joined"], c["gw.submissions.accepted"]
	hits := c["vcache.hits"] + c["vcache.coalesced"]
	out := map[string]metric{
		"gateway.admit_ms.p50":   ms("gateway.admit", 0.50),
		"gateway.join_ms.p50":    ms("client.join", 0.50),
		"gateway.join_ms.p99":    ms("client.join", 0.99),
		"gateway.respond_ms.p50": ms("gateway.respond", 0.50),
		"gateway.joined_ratio":   {ratio(joined, joined+accepted), "ratio"},

		"workqueue.wait_ms.p50":   ms("workqueue.wait", 0.50),
		"workqueue.wait_ms.p99":   ms("workqueue.wait", 0.99),
		"workqueue.reclaimed":     {c["svc.queue.reclaimed"], "count"},
		"workqueue.nacked":        {c["svc.queue.nacked"], "count"},
		"workqueue.dead_lettered": {c["svc.queue.dead_lettered"], "count"},

		"vetsvc.service_ms.p50": ms("vetsvc.service", 0.50),
		"vetsvc.service_ms.p99": ms("vetsvc.service", 0.99),
		"vetsvc.lanes_busy":     {float64(busy) / 1e9 / traced.win.wall, "lanes"},

		"pipeline.decode_ms.p99":  ms(stageSpan(apichecker.StageDecode), 0.99),
		"pipeline.emulate_ms.p99": ms(stageSpan(apichecker.StageEmulate), 0.99),

		"emulator.runs":      {c["emu.runs"], "count"},
		"emulator.fallbacks": {c["emu.fallbacks"], "count"},
		"emulator.crashes":   {c["emu.crashes"], "count"},

		"vcache.hit_ratio": {ratio(hits, hits+c["vcache.misses"]), "ratio"},
		"vcache.evictions": {c["vcache.evictions"], "count"},

		"triage.tier1_ratio": {ratio(c["svc.tier1"], c["svc.tier1"]+c["svc.tier2"]), "ratio"},

		"cluster.node_vet_ms.p50": ms("worker.vet", 0.50),
		"cluster.wire_ms.p50":     ms("cluster.wire", 0.50),
		"cluster.wire_ms.p99":     ms("cluster.wire", 0.99),
		"cluster.claims":          {c["cluster.claims"], "count"},
		"cluster.nacks":           {c["cluster.nacks"], "count"},
		"cluster.reclaims":        {c["cluster.reclaims"], "count"},
		"cluster.node_balance":    {traced.balance, "ratio"},

		"setup.usage_s":       setup(func(s setupTiming) float64 { return s.Usage }),
		"setup.fit_s":         setup(func(s setupTiming) float64 { return s.Fit }),
		"setup.serve_ready_s": setup(func(s setupTiming) float64 { return s.ServeReady }),
		"setup.nodes_ready_s": setup(func(s setupTiming) float64 { return s.NodesReady }),

		"runtime.alloc_bytes_per_req": {float64(plain.alloc) / reqs, "B"},
		"runtime.mallocs_per_req":     {float64(plain.mallocs) / reqs, "count"},
		"runtime.gc_cycles":           {float64(plain.gcs), "count"},

		"bench.trace_overhead": {ratio(rate(plain.win), rate(traced.win)) - 1, "ratio"},
	}
	for _, st := range []string{apichecker.StageAdmit, apichecker.StageCacheLookup, apichecker.StageTriage,
		apichecker.StageDecode, apichecker.StageEmulate, apichecker.StageExtract, apichecker.StageInfer} {
		out[stageSpan(st)+"_ms.p50"] = ms(stageSpan(st), 0.50)
	}
	for name, v := range propertyShares(traced.win) {
		out["share."+name] = metric{v, "ratio"}
	}
	return out
}

// timeShares reports where the traced requests' round trips went, as
// shares of all client round trips: the gateway's (admit, respond and
// whole joined requests), the queue wait's, the service's, and within it
// the pipeline's decode plus emulate and triage self times.
func timeShares(spans []span) string {
	self := selfTimes(spans)
	sum := make(map[string]int64)
	for i, s := range spans {
		if strings.HasPrefix(s.Name, "pipeline.") {
			sum[s.Name] += self[i]
		} else {
			sum[s.Name] += s.dur()
		}
	}
	total := float64(max(sum["client.request"]+sum["client.join"], 1))
	share := func(names ...string) float64 {
		var t int64
		for _, n := range names {
			t += sum[n]
		}
		return float64(t) / total
	}
	return fmt.Sprintf("shares of request time: gateway %.3f, workqueue wait %.3f, vetsvc service %.3f (pipeline decode+emulate %.3f, triage %.3f)",
		share("gateway.admit", "gateway.respond", "client.join"), share("workqueue.wait"), share("vetsvc.service"),
		share(stageSpan(apichecker.StageDecode), stageSpan(apichecker.StageEmulate)), share(stageSpan(apichecker.StageTriage)))
}

// propertyShares are the shares of a window's requests with each input
// property a later optimisation might target.
func propertyShares(w *window) map[string]float64 {
	var distinct, joined, tier1, hit float64
	for _, r := range w.reqs {
		if r.Joined {
			joined++
		} else {
			distinct++
		}
		if r.Tier1 {
			tier1++
		}
		if r.CacheHit {
			hit++
		}
	}
	n := float64(max(len(w.reqs), 1))
	return map[string]float64{"distinct": distinct / n, "joined": joined / n, "tier1": tier1 / n, "vcache_hit": hit / n}
}

// describe is a window's one-line summary.
func describe(w *window) string {
	s := propertyShares(w)
	_, _, samples, blocks := latencyStats(w)
	return fmt.Sprintf("%d requests in %.3fs (%d latency samples in %d blocks; verdicts per second slice %v); shares: distinct %.4f, joined %.4f, tier-1 %.4f, verdict-cache hit %.4f",
		len(w.reqs), w.wall, samples, blocks, sliceRates(w), s["distinct"], s["joined"], s["tier1"], s["vcache_hit"])
}

// quantile is the nearest-rank quantile of a sorted sample (0 if empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// medianOf is the median of v (0 if empty); v is sorted in place.
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func median(setups []setupTiming, f func(setupTiming) float64) float64 {
	v := make([]float64, len(setups))
	for i, s := range setups {
		v[i] = f(s)
	}
	return medianOf(v)
}

func fmtSetups(setups []setupTiming) string {
	parts := make([]string, len(setups))
	for i, s := range setups {
		parts[i] = fmt.Sprintf("%.3f (usage %.3f, fit %.3f, serve %.3f, nodes %.3f)", s.Total, s.Usage, s.Fit, s.ServeReady, s.NodesReady)
	}
	return strings.Join(parts, "; ")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
