package main

import "slices"

// The benchmark's metric lists. BENCHMARK.json mirrors them (-describe prints
// it; the smoke test checks the two agree), and every run must report exactly
// the list for its kind: end-to-end with -trace 0, per-layer with -trace 1.

// Bounds: on the shared 2-CPU reference host the quartile spread of the timed
// metrics over ten seeds is 3-12 % of the median and reaches 15-26 % on
// memory-bound tails (the host itself alternates between two speeds, see
// README), so they take the contract's maximum; the counted metrics repeat
// almost exactly.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"point_p50_us", "us", "lower", 0.25},
	{"point_p99_us", "us", "lower", 0.25},
	{"range_p50_us", "us", "lower", 0.25},
	{"range_p99_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"write_p99_us", "us", "lower", 0.25},
	{"alloc_bytes_per_op", "B/op", "lower", 0.10},
	{"heap_bytes_per_row", "B/row", "lower", 0.02},
	{"casper_vs_soa_x", "ratio", "higher", 0.25},
}

func perLayer(better string, unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

var perLayerMetrics = slices.Concat(
	perLayer("lower", "ns", "column.point_ns", "column.range_ns", "column.write_ns"),
	perLayer("lower", "count", "column.values_scanned_per_point", "column.scanned_per_range_row",
		"column.ripple_steps_per_write", "column.growths"),
	perLayer("higher", "ratio", "column.zonemap_skip_ratio", "column.ghost_hit_ratio"),
	perLayer("lower", "ns", "table.point_self_ns", "table.range_self_ns", "table.write_self_ns"),
	perLayer("lower", "count", "table.partitions_per_chunk_mean", "table.chunks"),
	perLayer("higher", "ratio", "table.ghost_slots_frac"),
	perLayer("lower", "ns", "shard.point_self_ns", "shard.range_self_ns", "shard.write_self_ns",
		"shard.route_point_self_ns", "shard.route_range_self_ns", "shard.route_write_self_ns"),
	perLayer("lower", "B/op", "shard.alloc_bytes_per_range"),
	perLayer("lower", "count", "shard.allocs_per_range", "shard.cursor_batches_per_scan",
		"shard.stripe_retries", "shard.compensation_hits"),
	perLayer("lower", "ratio", "shard.fan_inline_ratio", "shard.cross_shard_update_frac"),
	perLayer("higher", "ratio", "shard.scale_2c_x", "shard.point_scale_2c_x"),
	perLayer("lower", "ns", "casper.point_self_ns", "casper.range_self_ns", "casper.write_self_ns"),
	perLayer("lower", "ratio", "casper.trace_overhead_frac"),
	perLayer("lower", "ns", "wal.write_self_ns"),
	perLayer("lower", "B/op", "wal.bytes_per_write"),
	perLayer("lower", "B/row", "wal.dir_bytes_per_row"),
	perLayer("lower", "count", "wal.appends_per_write", "wal.fsyncs", "wal.segment_rolls"),
	perLayer("lower", "us", "wal.fsync_p50_us", "wal.fsync_p99_us"),
	perLayer("higher", "count", "wal.group_batch_mean"),
	perLayer("lower", "s", "shard.checkpoint_s", "shard.recovery_s"),
	perLayer("lower", "B/row", "shard.checkpoint_bytes_per_row"),
	perLayer("higher", "1/s", "shard.replay_records_per_s"),
	perLayer("lower", "count", "shard.replay_mismatches"),
	perLayer("lower", "ns", "replica.leader_write_self_ns"),
	perLayer("lower", "ms", "replica.lag_p50_ms", "replica.lag_max_ms"),
	perLayer("lower", "s", "replica.catchup_s"),
	perLayer("higher", "1/s", "replica.apply_records_per_s"),
	perLayer("lower", "ns", "obs.point_self_ns", "obs.range_self_ns", "obs.write_self_ns"),
	perLayer("lower", "s", "solver.train_s", "solver.train_s_per_chunk", "workload.gen_s"),
	perLayer("lower", "ns", "delta.soa_point_ns", "delta.soa_write_ns"),
	perLayer("lower", "us", "txn.commit_us"),
)
