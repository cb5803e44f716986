package main

import "negativaml/internal/negativa"

// keyedStages are the memoized stages whose tier attribution the
// stage.<name>.{hits,misses,disk_hits,peer_hits} counters carry.
var keyedStages = []string{negativa.StageDetect, negativa.StageLibIndex, negativa.StageLocate, negativa.StageCompact}

// layerMetrics computes the per-layer metrics of a traced phase; base is
// the untraced phase of the same seed, for the tracing overhead. Layers a
// workload does not exercise read 0.
func layerMetrics(p, base *phase) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	tr := p.e.tr
	n := p.ok
	mb := float64(1 << 20)
	delta := func(name string) float64 { return float64(p.c1[name] - p.c0[name]) }

	// Job-level layers, each distinct backend job once (coalesced gateway
	// riders share one).
	seen := map[*jobTrace]bool{}
	var submit, queue, setup, persist []float64
	stageMS := map[string]float64{}
	stages := 0
	for _, b := range tr.batches {
		j := b.job
		if j == nil || seen[j] {
			continue
		}
		seen[j] = true
		j.mu.Lock()
		if !j.submit.Start.IsZero() {
			submit = append(submit, msOf(j.submit.dur()))
		}
		spans := j.stageSpans()
		if !j.submitted.IsZero() && !j.started.IsZero() {
			queue = append(queue, msOf(j.started.Sub(j.submitted)))
		}
		if len(spans) > 0 && !j.terminal.IsZero() {
			first, last := spans[0].Start, spans[0].End
			for _, s := range spans {
				stageMS[s.Name] += msOf(s.dur())
				if s.Start.Before(first) {
					first = s.Start
				}
				if s.End.After(last) {
					last = s.End
				}
			}
			stages += len(spans)
			if !j.started.IsZero() {
				setup = append(setup, msOf(first.Sub(j.started)))
			}
			persist = append(persist, msOf(j.terminal.Sub(last)))
		}
		j.mu.Unlock()
	}
	m["dserve.submit_ms_p50"] = median(submit)
	m["dserve.job_queue_ms_p50"] = median(queue)
	m["dserve.job_setup_ms_p50"] = median(setup)
	m["dserve.persist_ms_p50"] = median(persist)
	m["dserve.http_bytes_per_batch"] = per(float64(tr.clientHTTPBytes), n)
	var busy float64
	for _, v := range stageMS {
		busy += v
	}
	m["plan.worker_busy_pct"] = pct(busy, msOf(p.elapsed)*float64(p.inst.workers()))
	m["plan.stages_per_batch"] = per(float64(stages), n)
	m["negativa.detect_ms_per_batch"] = per(stageMS["stage.detect"], n)
	m["elfx.libindex_ms_per_batch"] = per(stageMS["stage.libindex"], n)
	m["negativa.locate_ms_per_batch"] = per(stageMS["stage.locate"], n)
	m["negativa.compact_ms_per_batch"] = per(stageMS["stage.compact"], n)
	m["mlruntime.verify_ms_per_batch"] = per(stageMS["stage.clone"]+stageMS["stage.verifyrun"]+stageMS["stage.verifyref"], n)
	m["ingest.tree_ms_p50"] = median(p.e.treeMS)
	m["mlframework.generate_ms"] = median(p.e.genMS)

	// Memo tiers, from the nodes' stage counters.
	var hits, misses, disk, peer float64
	for _, s := range keyedStages {
		hits += delta("stage." + s + ".hits")
		misses += delta("stage." + s + ".misses")
		disk += delta("stage." + s + ".disk_hits")
		peer += delta("stage." + s + ".peer_hits")
	}
	all := hits + misses
	m["dserve.memo_source_pct.memory"] = pct(hits-disk-peer, all)
	m["dserve.memo_source_pct.disk"] = pct(disk, all)
	m["dserve.memo_source_pct.peer"] = pct(peer, all)
	m["dserve.memo_source_pct.computed"] = pct(misses, all)
	m["negativa.recompute_pct"] = pct(delta("stage.compact.misses"), delta("stage.compact.hits")+delta("stage.compact.misses"))

	m["castore.puts_per_batch"] = per(float64(p.s1.Puts-p.s0.Puts), n)
	m["castore.write_mb_per_batch"] = per(max(0, float64(p.s1.Bytes-p.s0.Bytes))/mb, n)
	m["castore.hits_per_batch"] = per(float64(p.s1.Hits-p.s0.Hits), n)

	// Peer transport, from the RoundTripper and the handler wrappers.
	for _, r := range peerRoutes {
		m["cluster.rpcs_per_batch."+r] = per(float64(tr.rpcs[r]), n)
	}
	m["cluster.wire_mb_per_batch"] = per(float64(tr.wireBytes)/mb, n)
	m["cluster.dials_per_batch"] = per(float64(tr.dials), n)
	m["cluster.rpc_ms_p50"] = quantile(tr.rpcMS, 0.5)
	m["cluster.rpc_ms_p95"] = quantile(tr.rpcMS, 0.95)
	m["cluster.peer_serve_ms_p50"] = median(tr.peerServeMS)
	fired := delta("peer.hedge_fired")
	m["cluster.hedge_fired_pct"] = pct(fired, float64(tr.rpcs["lookup"]+tr.rpcs["lookup-batch"])-fired)
	m["cluster.hedge_won_pct"] = pct(delta("peer.hedge_won"), fired)
	m["cluster.remote_execs_per_batch"] = per(delta("peer.remote_execs"), n)

	for k, v := range p.extra {
		m[k] = v
	}

	lg := tr.ledger()
	m["ledger.residual_pct"] = pct(float64(lg.residual), float64(lg.wall))
	rate := func(lat []float64, s float64) float64 { return float64(len(lat)) / s }
	bps, baseBPS := p.windowed(rate), base.windowed(rate)
	m["trace.overhead_pct"] = pct(baseBPS-bps, baseBPS)
	return m
}
