(* The metric catalogue, in BENCHMARK.json order.  A workload reports
   the per-layer values it measures; a layer it bypasses reads 0. *)

let workloads = [ "replay-mmap"; "serve-mix"; "figures-suite" ]

let end_to_end =
  [ ("setup_s", "s"); ("inst_per_s", "1/s"); ("op_p50_ms", "ms");
    ("op_p90_ms", "ms"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("serialize.map_s", "s");
    ("serialize.decode_s", "s");
    ("serialize.decode_inst_per_s", "1/s");
    ("serialize.bytes", "B");
    ("serialize.push_decode_s", "s");
    ("serialize.push_decode_bytes_per_s", "B/s");
    ("serialize.paths", "count");
    ("serialize.encode_s", "s");
    ("session.create_s", "s");
    ("session.push_s", "s");
    ("session.push_inst_per_s", "1/s");
    ("session.finish_s", "s");
    ("replay.mapped_s", "s");
    ("replay.mapped_glue_s", "s");
    ("replay.run_many_s", "s");
    ("replay.run_many_inst_per_s", "1/s");
    ("lint.attach_s", "s");
    ("lint.check_s", "s");
    ("lint.check_inst_per_s", "1/s");
    ("lint.diags", "count");
    ("serve.cpu_s", "s");
    ("serve.busy_ratio", "ratio");
    ("serve.overhead_p50_ms", "ms");
    ("serve.queue_high_water", "count");
    ("serve.chunks", "count");
    ("serve.completed", "count");
    ("serve.errored", "count");
    ("suite.record_s", "s");
    ("suite.record_inst_per_s", "1/s");
    ("freq.estimate_s", "s");
    ("hot_set.compute_s", "s");
    ("rates.operational_s", "s");
    ("engine.run_s", "s");
    ("engine.inst_per_s", "1/s");
    ("engine.fragments", "count");
    ("engine.flushes", "count");
    ("prediction.profiling_ops", "count");
    ("prediction.predictions", "count");
    ("prediction.counter_space", "count");
    ("trace.overhead_ratio", "ratio");
  ]
