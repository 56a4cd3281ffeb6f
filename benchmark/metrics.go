package main

import (
	"encoding/json"
	"strings"
)

// metricDef is one metric of the benchmark's vocabulary. BENCHMARK.json
// at the repository root is generated from these tables (-spec) and a
// test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // allowed worsening as a share of the baseline median; end-to-end only
}

// endToEnd is what a user of the system sees, per workload and per
// repetition (peak_rss_mb and setup_s: per child process). fail_share
// is end to end too, but it is 0 on a healthy run and a bound is a share
// of the baseline, so it travels as failed/attempted instead.
//
// The bounds are set by what this host can resolve, not by what one
// would like to gate: over ten runs on ten seeds the scaled wall_s and
// cpu_s spread 2-4 % in a quiet hour and more in a noisy one (unscaled:
// 6-27 %), and the children's peak RSS about 8 %.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.15},
	{"cpu_s", "s", "lower", 0.15},
	{"data_mb", "MB", "lower", 0.03},
	{"alloc_mb", "MB", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// virtualMS is end to end on sim_fig7_32x4 only (the modelled machine's
// time: a host-speed change must leave it unmoved). BENCHMARK.json wants
// every end-to-end metric on every workload, so it is listed per-layer
// there; the benchmark's own result files and -compare bound it at 3 %.
var virtualMS = metricDef{"virtual_ms", "ms", "lower", 0.03}

// perLayer is the traced run's vocabulary. A metric of a layer that is
// not on a workload's path reads 0 there.
var perLayer = layerDefs(`
apps.user_ms ms, apps.verify_ms ms,
cell.SOR.2L.run_ms ms, cell.SOR.1LD.run_ms ms, cell.LU.2L.run_ms ms, cell.LU.1LD.run_ms ms,
cell.Water.2L.run_ms ms, cell.Water.1LD.run_ms ms, cell.TSP.2L.run_ms ms, cell.TSP.1LD.run_ms ms,
cell.Gauss.2L.run_ms ms, cell.Gauss.1LD.run_ms ms, cell.Ilink.2L.run_ms ms, cell.Ilink.1LD.run_ms ms,
cell.Em3d.2L.run_ms ms, cell.Em3d.1LD.run_ms ms, cell.Barnes.2L.run_ms ms, cell.Barnes.1LD.run_ms ms,

mprun.body_ms ms, mprun.access_ms ms, mprun.access_calls count, mprun.access_words count,
mprun.access_ns_per_word ns, mprun.fetch_wait_ms ms, mprun.page_fetches count,
mprun.fetches_per_touched_page ratio, mprun.page_fetch_us_p50 us, mprun.page_fetch_us_p99 us,
mprun.lock_wait_ms ms, mprun.lock_grant_us_p50 us, mprun.lock_grant_us_p99 us, mprun.unlock_ms ms,
mprun.barrier_ms ms, mprun.flag_set_ms ms, mprun.flag_wait_ms ms, mprun.flush_wait_ms ms,
mprun.flush_acks count, mprun.flush_ack_us_p50 us, mprun.handler_ms ms, mprun.handler_frames count,
mprun.warm_load_ns ns, mprun.warm_store_ns ns, mprun.warm_row_ns_per_word ns, mprun.warm_load_ns_ppn2 ns,

transport.send_ms ms, transport.frames count, transport.bytes_mb MB, transport.frames_page count,
transport.frames_diff count, transport.frames_notice count, transport.frames_sync count,
wire.encode_ms ms, wire.decode_ms ms,
tcpchan.connect_ms ms, tcpchan.rt_us_p50 us, tcpchan.rt_us_p99 us, tcpchan.stream_mb_s MB/s higher,
shmchan.rt_us_p50 us, shmchan.rt_us_p99 us, shmchan.stream_mb_s MB/s higher,

virtual_ms ms,
core.read_faults count, core.write_faults count, core.page_transfers count, core.twins count,
core.page_flushes count, core.incoming_diffs count, core.excl_transitions count,
core.lock_acquires count, core.barriers count, directory.updates count, wnotice.notices count,
simchan.data_mb MB,
core.vt_user_ms ms, core.vt_protocol_ms ms, core.vt_commwait_ms ms, core.vt_polling_ms ms,
core.access_calls count, core.access_words count, core.host_ns_per_word ns,
core.new_ms ms, core.warm_load_ns ns, core.warm_store_ns ns, core.warm_row_ns_per_word ns,
core.fault_host_us us,
diff.twin_ns ns, diff.outgoing_sparse_ns ns, diff.outgoing_dense_ns ns, diff.incoming_ns ns,
vm.set_ns ns, vm.loosest_ns ns, directory.load_ns ns, directory.store_ns ns,
wnotice.post_ns ns, wnotice.drain_ns ns,

host.speed ratio higher, host.wall_raw_s s, host.gc_cycles count, host.gc_pause_ms ms, host.mallocs count,
trace.overhead_ratio ratio, trace.virtual_ratio ratio
`)

// layerDefs parses "name unit [better]" entries separated by commas;
// lower is better unless said otherwise.
func layerDefs(table string) []metricDef {
	var defs []metricDef
	for _, entry := range strings.Split(table, ",") {
		f := strings.Fields(entry)
		d := metricDef{Name: f[0], Unit: f[1], Better: "lower"}
		if len(f) > 2 {
			d.Better = f[2]
		}
		defs = append(defs, d)
	}
	return defs
}

// runSeconds is how long one run of one workload measures by default,
// and what BENCHMARK.json tells the driver to pass as --seconds.
const runSeconds = 21

// spec renders BENCHMARK.json.
func spec() []byte {
	type work struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []work      `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, work{w.name, w.why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return append(b, '\n')
}
