package main

import "strings"

// endToEnd are the metrics a user of the system sees, printed by every
// workload with --trace 0. README.md says what each means per workload.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"peak_rss_bytes", "bytes"},
	{"conn_s", "s"},
	{"conn_rounds", "count"},
	{"mst_s", "s"},
	{"mst_rounds", "count"},
	{"ops_per_s", "1/s"},
}

// splitLayers are the layers a job's wall time is charged to in a traced
// run: each instant goes to the innermost span covering it, and the time
// no layer span covers is the remainder, so the parts sum to the wall.
var splitLayers = []string{"store", "kmachine", "core", "transport", "dist", "resident", "server", "remainder"}

// perLayer are the metrics of single layers, printed with --trace 1.
var perLayer = append([]decl{
	{"store.open_s", "s"},
	{"store.scan_s", "s"},
	{"store.blocks_decoded", "count"},
	{"store.crc_checks", "count"},
	{"kmachine.load_s", "s"},
	{"kmachine.load_alloc_bytes", "bytes"},
	{"kmachine.machine_s", "s"},
	{"kmachine.us_per_round", "us"},
	{"transport.round_s", "s"},
	{"transport.round_calls", "count"},
	{"transport.msgs", "count"},
	{"transport.payload_bytes", "bytes"},
	{"transport.total_bits", "bits"},
	{"transport.max_link_bits", "bits"},
	{"core.phases", "count"},
	{"core.phase0_s", "s"},
	{"core.phase0_rounds", "count"},
	{"core.phase0_heap_bytes", "bytes"},
	{"core.tail_phases_s", "s"},
	{"core.sketch_failures", "count"},
	{"core.collapse_iters", "count"},
	{"core.mst_elim_iters", "count"},
	{"sketch.build_s", "s"},
	{"sketch.fold_s", "s"},
	{"sketch.encoded_bytes", "bytes"},
	{"sketch.alloc_bytes", "bytes"},
	{"graph.oracle_s", "s"},
	{"resident.recompute_s", "s"},
	{"resident.batch_s", "s"},
	{"resident.rounds_per_recompute", "count"},
	{"resident.jobs", "count"},
	{"server.self_s", "s"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_lookups", "count"},
	{"server.coalesced", "count"},
	{"server.shed_429", "count"},
	{"server.read_p50_ms", "ms"},
	{"server.read_p99_ms", "ms"},
	{"server.read_samples", "count"},
	{"server.write_p50_ms", "ms"},
	{"server.write_p90_ms", "ms"},
	{"server.write_samples", "count"},
	{"dist.phase_span_s", "s"},
	{"dist.barrier_wait_s", "s"},
	{"dist.prephase_s", "s"},
	{"dist.frames", "count"},
	{"tcp.bytes_sent", "bytes"},
	{"tcp.wire_to_payload", "ratio"},
	{"tcp.payload_bytes", "bytes"},
	{"trace.overhead_share", "ratio"},
	{"trace.base_s", "s"},
}, splitDecls()...)

func splitDecls() []decl {
	var ds []decl
	for _, job := range []string{"conn", "mst"} {
		ds = append(ds, decl{"split." + job + ".wall_s", "s"})
		for _, l := range splitLayers {
			ds = append(ds, decl{"split." + job + "." + l + "_s", "s"})
		}
	}
	return ds
}

func layerUnit(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// samples collects per-layer observations across traced jobs; each
// metric reports their median, except the split.* parts, which report
// their mean so that the parts of a job still sum to its wall time.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) into(r *result) {
	for name, vs := range s {
		v := median(vs)
		if strings.HasPrefix(name, "split.") {
			v = mean(vs)
		}
		r.setLayer(name, layerUnit(name), v)
	}
}
