(* Benchmark harness: regenerates every table and figure of the paper and
   times the computational kernel behind each with Bechamel.

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- quick     # microbenchmarks only
     dune exec bench/main.exe -- tables    # reproductions only
     dune exec bench/main.exe -- events    # event-stream overhead proof

   Reproduction output mirrors `hotpath table1|table2|fig2|fig3|fig4|fig5`
   and is recorded in EXPERIMENTS.md. *)

open Hotpath

let heading title =
  Format.printf "@.============================================================@.";
  Format.printf "%s@." title;
  Format.printf "============================================================@."

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks: one per table/figure kernel, plus the      *)
(* profiling primitives whose costs the paper's argument rests on.      *)
(* ------------------------------------------------------------------ *)

(* Defeat the packed entry points' kernel dispatch (keyed on the physical
   identity of [observe]) without changing behaviour: the eta-expansion
   allocates a fresh closure, so [Replay.run_many] falls back to the
   generic first-class-module loop.  This is how the benchmarks price the
   packed loop against the monomorphized kernels on the same scheme. *)
module Degrade (S : Scheme.S) : Scheme.S = struct
  include S

  let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
    S.observe t ~head ~arrival ~path_id ~n_branches ~n_blocks
end

module Net_generic = Degrade (Net)
module Pp_generic = Degrade (Path_profile_scheme)

(* The k-iteration kernels are recognized by the identity of [create]
   ([observe] alone captures nothing instantiation-specific and is
   shared across every k), so their generic twins eta-expand [create]
   instead. *)
module Degrade_k (S : Scheme.S) : Scheme.S = struct
  include S

  let create ~delay ~program = S.create ~delay ~program
end

module Net_k2 = (val Net_k.make 2)
module Pp_k2 = (val Path_profile_k.make 2)
module Net_k2_generic = Degrade_k (Net_k2)
module Pp_k2_generic = Degrade_k (Pp_k2)

let ops_tests () =
  (* Profiling primitives, measured per operation. *)
  let sig_builder = Signature.Builder.create ~head:0 in
  let flip = ref false in
  let shift =
    Bechamel.Test.make ~name:"op/bit-trace-shift"
      (Bechamel.Staged.stage (fun () ->
           if Signature.Builder.branch_count sig_builder >= Signature.max_branches
           then Signature.Builder.reset sig_builder ~head:0;
           flip := not !flip;
           Signature.Builder.add_branch sig_builder ~taken:!flip))
  in
  let program =
    let b = Cfg.Builder.create ~name:"bench" in
    let p = Cfg.Builder.add_proc b ~name:"main" in
    let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
    Cfg.Builder.set_term b b0 Cfg.Exit;
    Cfg.Builder.finish b
  in
  let net_state = Net.create ~delay:1_000_000_000 ~program in
  let counter = ref 0 in
  let net_observe =
    Bechamel.Test.make ~name:"op/net-head-counter"
      (Bechamel.Staged.stage (fun () ->
           incr counter;
           ignore
             (Net.observe net_state ~head:(!counter land 255) ~arrival:Path.Loop_head
                ~path_id:!counter ~n_branches:8 ~n_blocks:10)))
  in
  let pp_state = Path_profile_scheme.create ~delay:1_000_000_000 ~program in
  let pp_observe =
    Bechamel.Test.make ~name:"op/path-profile-update"
      (Bechamel.Staged.stage (fun () ->
           incr counter;
           ignore
             (Path_profile_scheme.observe pp_state ~head:0 ~arrival:Path.Loop_head
                ~path_id:(!counter land 4095) ~n_branches:8 ~n_blocks:10)))
  in
  [ shift; net_observe; pp_observe ]

let experiment_tests () =
  (* One kernel per table/figure, at reduced scale so each iteration is
     milliseconds. *)
  let bench = Suite.find_exn "deltablue" in
  let recorded = Suite.record ~scale:0.05 bench in
  let hot =
    Hot_set.compute
      ~freq:(Recorder.frequencies recorded)
      ~total_flow:(Recorder.num_instances recorded)
      ~threshold:Suite.hot_threshold
  in
  let table1 =
    Bechamel.Test.make ~name:"table1/record+hot-set"
      (Bechamel.Staged.stage (fun () ->
           let r = Suite.record ~scale:0.02 bench in
           ignore
             (Hot_set.compute ~freq:(Recorder.frequencies r)
                ~total_flow:(Recorder.num_instances r) ~threshold:Suite.hot_threshold)))
  in
  let table2 =
    Bechamel.Test.make ~name:"table2/unique-heads"
      (Bechamel.Staged.stage (fun () ->
           ignore (Path_table.unique_heads recorded.Recorder.table);
           ignore (Recorder.unique_loop_heads recorded)))
  in
  let fig2 =
    Bechamel.Test.make ~name:"fig2/net-replay-sweep"
      (Bechamel.Staged.stage (fun () ->
           ignore (Sweep.run (module Net) recorded ~hot ~delays:[ 5; 50; 500 ])))
  in
  let fig3 =
    Bechamel.Test.make ~name:"fig3/path-profile-replay-sweep"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Sweep.run
                (module Path_profile_scheme)
                recorded ~hot ~delays:[ 5; 50; 500 ])))
  in
  let fig4 =
    Bechamel.Test.make ~name:"fig4/counter-space-replay"
      (Bechamel.Staged.stage (fun () ->
           let net = Replay.run (module Net) ~delay:50 recorded in
           let pp = Replay.run (module Path_profile_scheme) ~delay:50 recorded in
           ignore (net.Replay.counter_space, pp.Replay.counter_space)))
  in
  let cost = Cost_model.default in
  let fig5 =
    Bechamel.Test.make ~name:"fig5/dynamo-engine"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Engine.run
                (Engine.config ~cost
                   ~scheme:(module Net : Scheme.S)
                   ~scheme_costs:(Engine.net_costs cost) ~delay:50 ())
                recorded)))
  in
  (* The multiplexing payoff: a full default-delay sweep as one pass vs
     one Replay.run per delay. *)
  let sweep_delays = Sweep.default_delays in
  let sweep_naive =
    Bechamel.Test.make ~name:"sweep/naive-pass-per-delay"
      (Bechamel.Staged.stage (fun () ->
           List.iter
             (fun delay -> ignore (Replay.run (module Net) ~delay recorded))
             sweep_delays))
  in
  let sweep_multiplexed =
    Bechamel.Test.make ~name:"sweep/multiplexed-single-pass"
      (Bechamel.Staged.stage (fun () ->
           ignore (Replay.run_many (module Net) ~delays:sweep_delays recorded)))
  in
  (* Streamed vs materialized replay over the same trace: the HOTPATH3
     stream is framed and CRC-checked, so this prices the decode overhead
     the constant-memory path pays. *)
  let blob = Serialize.Stream.to_string recorded in
  let replay_materialized =
    Bechamel.Test.make ~name:"stream/replay-materialized"
      (Bechamel.Staged.stage (fun () ->
           ignore (Replay.run (module Net) ~delay:50 recorded)))
  in
  let replay_streamed =
    Bechamel.Test.make ~name:"stream/replay-streamed"
      (Bechamel.Staged.stage (fun () ->
           match Serialize.Stream.open_string blob with
           | Error e -> failwith e
           | Ok rd ->
             (match Replay.run_stream (module Net) ~delay:50 rd with
              | Error e -> failwith e
              | Ok o -> ignore o)))
  in
  (* The monomorphization payoff: the same multiplexed replay through the
     generic packed loop vs the specialized kernel (see `kernel` mode for
     the full-trace measurement). *)
  let kernel_delays = [ 5; 50; 500 ] in
  let replay_packed =
    Bechamel.Test.make ~name:"replay/packed-generic-loop"
      (Bechamel.Staged.stage (fun () ->
           ignore
             (Replay.run_many (module Net_generic) ~delays:kernel_delays recorded)))
  in
  let replay_kernel =
    Bechamel.Test.make ~name:"replay/monomorphized-kernel"
      (Bechamel.Staged.stage (fun () ->
           ignore (Replay.run_many (module Net) ~delays:kernel_delays recorded)))
  in
  [ table1; table2; fig2; fig3; fig4; fig5; sweep_naive; sweep_multiplexed;
    replay_materialized; replay_streamed; replay_packed; replay_kernel ]

let run_bechamel tests =
  let ols =
    Bechamel.Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Bechamel.Measure.run |]
  in
  let instances = Bechamel.Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Bechamel.Benchmark.cfg ~limit:2000
      ~quota:(Bechamel.Time.second 0.5)
      ~kde:(Some 1000) ()
  in
  let raw =
    Bechamel.Benchmark.all cfg instances
      (Bechamel.Test.make_grouped ~name:"hotpath" tests)
  in
  let results =
    List.map (fun instance -> Bechamel.Analyze.all ols instance raw) instances
  in
  let results = Bechamel.Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _metric by_test ->
       let rows =
         Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) by_test []
         |> List.sort compare
       in
       List.iter
         (fun (name, ols_result) ->
            match Bechamel.Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Format.printf "  %-40s %12.1f ns/run@." name est
            | Some _ | None -> Format.printf "  %-40s (no estimate)@." name)
         rows)
    results

(* ------------------------------------------------------------------ *)
(* Streaming demonstration: constant-memory record + replay            *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM, kB) from /proc/self/status; -1 where the
   proc filesystem is unavailable.  The watermark is monotonic for the
   life of the process, so the streamed phase must run first — whatever
   the materialized phase adds on top is attributable to holding the
   whole trace. *)
let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> -1
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> -1
      | line ->
        (try Scanf.sscanf line "VmHWM: %d kB" (fun v -> v)
         with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

let pp_hwm label =
  match vm_hwm_kb () with
  | -1 -> Format.printf "  peak RSS %s: unavailable@." label
  | kb -> Format.printf "  peak RSS %s: %.1f MB@." label (float_of_int kb /. 1024.0)

let bench_ingest_file = "BENCH_ingest.json"

(* Same flat JSON-lines shape as BENCH_replay.json: one line per ingest
   variant, parseable by Events.parse_line. *)
let bench_ingest_line ~variant ~scale ~instances ~wall_s ~peak_rss_kb =
  let buf = Buffer.create 256 in
  Events.emit (Events.of_buffer buf) ~kind:"bench_ingest"
    [
      ("variant", Events.Str variant);
      ("scale", Events.Float scale);
      ("instances", Events.Int instances);
      ("wall_s", Events.Float wall_s);
      ("instances_per_s", Events.Float (float_of_int instances /. wall_s));
      ("peak_rss_kb", Events.Int peak_rss_kb);
    ];
  Buffer.contents buf

let streaming_demo ~smoke ~scale =
  heading
    (Printf.sprintf
       "Streaming vs mapped vs materialized — deltablue at scale %.1f%s" scale
       (if smoke then " (smoke)" else ""));
  let bench = Suite.find_exn "deltablue" in
  let path = Filename.temp_file "hotpath_stream" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* Phase 1: record straight to disk, no materialized instance stream. *)
  let t0 = Unix.gettimeofday () in
  let oc = open_out_bin path in
  let summary =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Suite.record_stream ~scale bench ~sink:(output_string oc))
  in
  let record_s = Unix.gettimeofday () -. t0 in
  Format.printf "  streamed record: %d instances, %d paths, %d bytes in %.2fs@."
    summary.Recorder.cs_instances summary.Recorder.cs_paths
    (try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> -1)
    record_s;
  pp_hwm "after streamed record";
  (* Replay timings are best-of with the read and mmap reps
     interleaved: the mmap-vs-read comparison gates CI, and running one
     variant's reps back to back would let a single slow scheduling
     patch poison that variant's whole sample while leaving the other
     untouched.  Interleaving makes both minima see the same noise
     environment. *)
  let reps = if smoke then 5 else 3 in
  let lines = ref [] in
  let report ~variant ~instances ~peak_rss_kb wall_s =
    Format.printf "  %-26s %.2fs (%.2e instances/s)@."
      (variant ^ " replay:") wall_s
      (float_of_int instances /. wall_s);
    lines :=
      bench_ingest_line ~variant ~scale ~instances ~wall_s ~peak_rss_kb
      :: !lines
  in
  let read_once () =
    match Serialize.Stream.open_file ~path with
    | Error e -> failwith e
    | Ok rd ->
      let result = Replay.run_stream (module Net) ~delay:50 rd in
      Serialize.Stream.close rd;
      (match result with Error e -> failwith e | Ok o -> o)
  in
  let mmap_once () =
    match Serialize.Stream.Mapped.map_file ~path with
    | Error e -> failwith e
    | Ok m ->
      (match Replay.run_mapped (module Net) ~delay:50 m with
       | Error e -> failwith e
       | Ok o -> o)
  in
  (* RSS attribution passes, in order: pull-reader replay first (read(2)
     into reused buffers, one frame in memory at a time), then the
     zero-copy mapped replay — the watermark is monotonic, so whatever
     the mapped pass adds on top is the resident cost of the mapping
     itself.  The timed reps below run after both watermarks are
     established and cannot disturb them. *)
  Gc.compact ();
  let streamed = read_once () in
  let read_rss = vm_hwm_kb () in
  pp_hwm "after read replay";
  Gc.compact ();
  let mapped = mmap_once () in
  let mmap_rss = vm_hwm_kb () in
  pp_hwm "after mmap replay";
  let best_read = ref infinity and best_mmap = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (read_once ());
    let t = Unix.gettimeofday () -. t0 in
    if t < !best_read then best_read := t;
    let t0 = Unix.gettimeofday () in
    ignore (mmap_once ());
    let t = Unix.gettimeofday () -. t0 in
    if t < !best_mmap then best_mmap := t
  done;
  let read_s = !best_read and mmap_s = !best_mmap in
  report ~variant:"read" ~instances:streamed.Replay.total_instances
    ~peak_rss_kb:read_rss read_s;
  report ~variant:"mmap" ~instances:mapped.Replay.total_instances
    ~peak_rss_kb:mmap_rss mmap_s;
  (* Materialized load + replay of the same file, last: it holds the
     whole instance stream and dominates the final watermark. *)
  Gc.compact ();
  let materialized_s, materialized =
    let best = ref infinity and result = ref None in
    for _ = 1 to reps do
      let t0 = Unix.gettimeofday () in
      let recorded =
        match Serialize.load ~path with Error e -> failwith e | Ok r -> r
      in
      let o = Replay.run (module Net) ~delay:50 recorded in
      let t = Unix.gettimeofday () -. t0 in
      if t < !best then best := t;
      result := Some o
    done;
    (!best, Option.get !result)
  in
  report ~variant:"materialized"
    ~instances:materialized.Replay.total_instances
    ~peak_rss_kb:(vm_hwm_kb ()) materialized_s;
  pp_hwm "after materialized replay";
  let identical a b =
    a.Replay.total_instances = b.Replay.total_instances
    && a.Replay.predictions = b.Replay.predictions
    && a.Replay.predicted_at = b.Replay.predicted_at
    && a.Replay.freq = b.Replay.freq
    && a.Replay.captured = b.Replay.captured
    && a.Replay.profiled_instances = b.Replay.profiled_instances
    && a.Replay.captured_instances = b.Replay.captured_instances
    && a.Replay.counter_space = b.Replay.counter_space
    && a.Replay.profiling_ops = b.Replay.profiling_ops
    && a.Replay.collection_ops = b.Replay.collection_ops
  in
  let same = identical streamed materialized && identical streamed mapped in
  Format.printf "  outcomes bit-identical (read == mmap == materialized): %b@."
    same;
  if not same then exit 1;
  if smoke then begin
    (* The mapped reader exists to beat the pull reader: it skips the
       read(2) round trips and the per-frame ring-buffer copies.  The
       timed region is decode + replay and the walk cost is common to
       both sides, so the decode advantage is a modest slice of the
       ratio; on a loaded 1-core box best-of-5 minima still jitter a few
       percent either way.  10% slack sits above that noise band and
       well below the signature of the regression class this gate
       exists to catch — a mapped path that re-grew a per-frame copy or
       lost its in-place decode shows up as categorically slower, not
       10% slower. *)
    let pass = mmap_s <= read_s *. 1.10 in
    Format.printf "  smoke gate (mmap %.2e >= read %.2e instances/s): %s@."
      (float_of_int mapped.Replay.total_instances /. mmap_s)
      (float_of_int streamed.Replay.total_instances /. read_s)
      (if pass then "PASS" else "FAIL");
    if not pass then exit 1
  end
  else begin
    let oc = open_out bench_ingest_file in
    List.iter (output_string oc) (List.rev !lines);
    close_out oc;
    Format.printf "  wrote %s@." bench_ingest_file
  end

(* ------------------------------------------------------------------ *)
(* Events overhead: emission must be ~free disabled, <3% enabled       *)
(* ------------------------------------------------------------------ *)

let events_overhead_demo ~scale =
  heading
    (Printf.sprintf "Event-stream overhead — deltablue at scale %.1f" scale);
  let bench = Suite.find_exn "deltablue" in
  let recorded = Suite.record ~scale bench in
  let n = Recorder.num_instances recorded in
  Format.printf "  trace: %d instances, %d paths@." n (Recorder.num_paths recorded);
  let time f =
    (* Best of 15: emission cost is per *window*, so the signal is small;
       the minimum is the standard noise-resistant estimator for "how
       fast can this go". *)
    List.fold_left
      (fun (best_t, _) (t, r) -> if t < best_t then (t, r) else (best_t, r))
      (infinity, f ())
      (List.init 15 (fun _ ->
           let t0 = Unix.gettimeofday () in
           let r = f () in
           (Unix.gettimeofday () -. t0, r)))
  in
  let baseline_s, baseline =
    time (fun () -> Replay.run (module Net) ~delay:50 recorded)
  in
  (* A null sink must behave exactly like not passing events at all. *)
  let disabled_s, disabled =
    time (fun () ->
        Replay.run ~events:(Replay.events Events.null) (module Net) ~delay:50
          recorded)
  in
  let path = Filename.temp_file "hotpath_events" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* The sink is opened once, outside the timed region: the claim priced
     here is per-window emission, not file open/close. *)
  let sink = Events.open_file path in
  let enabled_s, enabled =
    Fun.protect
      ~finally:(fun () -> Events.close sink)
      (fun () ->
         time (fun () ->
             Replay.run
               ~events:(Replay.events ~window:Replay.default_events_window sink)
               (module Net) ~delay:50 recorded))
  in
  let lines = ref (Events.emitted sink) in
  let overhead t = ((t -. baseline_s) /. baseline_s) *. 100.0 in
  Format.printf "  baseline (no events):      %.3fs (%.2e instances/s)@."
    baseline_s (float_of_int n /. baseline_s);
  Format.printf "  null sink (disabled):      %.3fs (%+.2f%%)@." disabled_s
    (overhead disabled_s);
  Format.printf "  file sink (every %d):    %.3fs (%+.2f%%), %d events@."
    Replay.default_events_window enabled_s (overhead enabled_s) !lines;
  let identical o o' =
    o.Replay.predictions = o'.Replay.predictions
    && o.Replay.predicted_at = o'.Replay.predicted_at
    && o.Replay.freq = o'.Replay.freq
    && o.Replay.captured = o'.Replay.captured
    && o.Replay.profiled_instances = o'.Replay.profiled_instances
    && o.Replay.counter_space = o'.Replay.counter_space
    && o.Replay.profiling_ops = o'.Replay.profiling_ops
    && o.Replay.collection_ops = o'.Replay.collection_ops
  in
  let same = identical baseline disabled && identical baseline enabled in
  Format.printf "  outcomes bit-identical across all three: %b@." same;
  let disabled_ok = overhead disabled_s < 1.0
  and enabled_ok = overhead enabled_s < 3.0 in
  Format.printf "  overhead within budget (<1%% disabled, <3%% enabled): %b@."
    (disabled_ok && enabled_ok);
  if not (same && disabled_ok && enabled_ok) then exit 1

(* ------------------------------------------------------------------ *)
(* Replay kernel benchmark: packed loop vs monomorphized kernel vs      *)
(* chunk-sharded parallel replay, with bit-identity checks and a        *)
(* recorded baseline (BENCH_replay.json)                                *)
(* ------------------------------------------------------------------ *)

let bench_replay_file = "BENCH_replay.json"

(* One line per measured variant, in the same flat JSON the event stream
   uses, so the baseline is greppable and parseable by Events.parse_line
   without a JSON dependency. *)
(* The machine a row was measured on: cores, compiler, source revision
   ("-dirty" when the working tree differs from it). *)
let git_revision () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let rev = try input_line ic with End_of_file -> "unknown" in
    ignore (Unix.close_process_in ic);
    rev

let machine_fields =
  lazy
    [
      ("nproc", Events.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Events.Str Sys.ocaml_version);
      ("git_rev", Events.Str (git_revision ()));
    ]

let bench_replay_line ~scheme ~variant ~jobs ~scale ~instances ~delays ~wall_s
    ~speedup =
  let buf = Buffer.create 256 in
  Events.emit (Events.of_buffer buf) ~kind:"bench_replay"
    @@ Lazy.force machine_fields
    @ [
      ("scheme", Events.Str scheme);
      ("variant", Events.Str variant);
      ("jobs", Events.Int jobs);
      ("scale", Events.Float scale);
      ("instances", Events.Int instances);
      ("delays", Events.Int delays);
      ("wall_s", Events.Float wall_s);
      ("instances_per_s", Events.Float (float_of_int instances /. wall_s));
      (* Aggregate lane throughput: the multiplexed pass advances every
         delay lane per trace instance, so lane-instances/s (n * delays /
         wall) is the figure comparable to running the delay sweep as
         separate passes. *)
      ( "lane_instances_per_s",
        Events.Float (float_of_int (instances * delays) /. wall_s) );
      ("speedup_vs_packed", Events.Float speedup);
    ];
  Buffer.contents buf

(* The committed baseline's packed->kernel speedup for one scheme: the
   one number in BENCH_replay.json that is a machine-independent ratio,
   which is why the smoke regression gate keys on it rather than on
   absolute instances/s. *)
let baseline_speedup ~scheme =
  match open_in bench_replay_file with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        let acc =
          match Events.parse_line line with
          | Error _ -> acc
          | Ok fields ->
            if
              Events.kind fields = Some "bench_replay"
              && Events.find_str fields "scheme" = Some scheme
              && Events.find_str fields "variant" = Some "kernel"
              && Events.find_int fields "jobs" = Some 1
            then Events.find_float fields "speedup_vs_packed"
            else acc
        in
        scan acc
    in
    let v = scan None in
    close_in ic;
    v

let outcome_equal (a : Replay.outcome) (b : Replay.outcome) =
  a.Replay.scheme_name = b.Replay.scheme_name
  && a.Replay.delay = b.Replay.delay
  && a.Replay.total_instances = b.Replay.total_instances
  && a.Replay.predictions = b.Replay.predictions
  && a.Replay.predicted_at = b.Replay.predicted_at
  && a.Replay.freq = b.Replay.freq
  && a.Replay.captured = b.Replay.captured
  && a.Replay.profiled_instances = b.Replay.profiled_instances
  && a.Replay.captured_instances = b.Replay.captured_instances
  && a.Replay.counter_space = b.Replay.counter_space
  && a.Replay.profiling_ops = b.Replay.profiling_ops
  && a.Replay.collection_ops = b.Replay.collection_ops

let kernel_bench ~smoke ~scale =
  heading
    (Printf.sprintf "Replay kernels — deltablue at scale %.1f%s" scale
       (if smoke then " (smoke)" else ""));
  let bench = Suite.find_exn "deltablue" in
  let recorded = Suite.record ~scale bench in
  let n = Recorder.num_instances recorded in
  let delays = [ 2; 5; 10; 50; 100; 500; 1_000; 5_000 ] in
  let k = List.length delays in
  Format.printf "  trace: %d instances, %d paths; %d delay lanes@." n
    (Recorder.num_paths recorded) k;
  if (not smoke) && n < 1_000_000 then begin
    Format.printf "  FAIL: full kernel bench requires >= 1M instances@.";
    exit 1
  end;
  let ok = ref true in
  let check label cond =
    Format.printf "  %-52s %s@." label (if cond then "ok" else "FAIL");
    if not cond then ok := false
  in
  (* Bit-identity across all three loops, per scheme, before any timing:
     a fast wrong kernel is worthless. *)
  let schemes =
    [
      ("net", (module Net : Scheme.S), (module Net_generic : Scheme.S));
      ( "path-profile",
        (module Path_profile_scheme : Scheme.S),
        (module Pp_generic : Scheme.S) );
      ("net-k2", (module Net_k2 : Scheme.S), (module Net_k2_generic : Scheme.S));
      ( "path-profile-k2",
        (module Pp_k2 : Scheme.S),
        (module Pp_k2_generic : Scheme.S) );
    ]
  in
  (* The recording pushed through a [Session] as stream-sized batches:
     the path mapped, streamed and served replay take, on the same
     kernel as the in-memory run. *)
  let session_run packed =
    let sess =
      match
        Session.create ~lint:false packed ~delays
          ~program:recorded.Recorder.program ~table:recorded.Recorder.table
      with
      | Ok s -> s
      | Error e -> failwith e
    in
    let frame = Recorder.default_chunk_instances in
    let batch = Batch.create ~capacity:frame () in
    let lo = ref 0 in
    while !lo < n do
      let len = min frame (n - !lo) in
      (* A typed copy loop: [Array.blit] would pay a write barrier per
         int into the major-heap batch. *)
      let ids = batch.Batch.ids and src = recorded.Recorder.instances in
      for j = 0 to len - 1 do
        Array.unsafe_set ids j (Array.unsafe_get src (!lo + j))
      done;
      Bytes.blit recorded.Recorder.arrivals !lo batch.Batch.arrs 0 len;
      Batch.set_length batch len;
      (match Session.push_batch sess batch with
       | Ok () -> ()
       | Error e -> failwith e);
      lo := !lo + len
    done;
    Session.finish sess
  in
  List.iter
    (fun (name, packed, generic) ->
       let reference = Replay.run_many generic ~delays recorded in
       let kernel = Replay.run_many packed ~delays recorded in
       check
         (Printf.sprintf "%s: kernel == packed loop" name)
         (List.for_all2 outcome_equal reference kernel);
       check
         (Printf.sprintf "%s: session batches == packed loop" name)
         (List.for_all2 outcome_equal reference (session_run packed));
       List.iter
         (fun jobs ->
            let sharded = Replay.run_many ~jobs packed ~delays recorded in
            check
              (Printf.sprintf "%s: chunk-sharded jobs=%d == serial" name jobs)
              (List.for_all2 outcome_equal reference sharded))
         [ 2; 4 ])
    schemes;
  (* Event streams must merge back into the exact serial byte sequence,
     is_hot sampling included (the closure runs on worker domains). *)
  let hot =
    Hot_set.compute
      ~freq:(Recorder.frequencies recorded)
      ~total_flow:n ~threshold:Suite.hot_threshold
  in
  let event_bytes jobs =
    let buf = Buffer.create 65_536 in
    let ev =
      Replay.events ~window:8_192 ~is_hot:(Hot_set.is_hot hot)
        (Events.of_buffer buf)
    in
    ignore (Replay.run_many ~events:ev ~jobs (module Net) ~delays recorded);
    Buffer.contents buf
  in
  let serial_events = event_bytes 1 in
  check "net: event stream jobs=4 byte-identical to serial"
    (String.length serial_events > 0 && event_bytes 4 = serial_events);
  (* Timings: best-of, same delay set everywhere, throughput in trace
     instances/s (n / wall — the multiplexed pass makes one logical
     traversal of the trace at every job count; jobs>1 shards that
     traversal into chunks instead of re-walking it per shard). *)
  (* Best-of over enough reps that the minimum is stable: the smoke
     scaling gates compare two minima, and at smoke scale a single
     descheduled rep can swing one side by 30%. *)
  let reps = if smoke then 5 else 5 in
  let time f =
    ignore (f ());
    List.fold_left min infinity
      (List.init reps (fun _ ->
           let t0 = Unix.gettimeofday () in
           ignore (f ());
           Unix.gettimeofday () -. t0))
  in
  let lines = ref [] in
  let report ~scheme ~variant ~jobs ~packed_s wall_s =
    let speedup = packed_s /. wall_s in
    Format.printf "  %-12s %-10s jobs=%d  %8.3fs  %10.2e instances/s  %5.2fx@."
      scheme variant jobs wall_s
      (float_of_int n /. wall_s)
      speedup;
    lines :=
      bench_replay_line ~scheme ~variant ~jobs ~scale ~instances:n ~delays:k
        ~wall_s ~speedup
      :: !lines
  in
  let measured =
    List.map
      (fun (name, packed, generic) ->
         let packed_s = time (fun () -> Replay.run_many generic ~delays recorded) in
         report ~scheme:name ~variant:"packed" ~jobs:1 ~packed_s packed_s;
         let kernel_s = time (fun () -> Replay.run_many packed ~delays recorded) in
         report ~scheme:name ~variant:"kernel" ~jobs:1 ~packed_s kernel_s;
         let session_s = time (fun () -> session_run packed) in
         report ~scheme:name ~variant:"session" ~jobs:1 ~packed_s session_s;
         (* Full scheme x jobs matrix: a scaling regression in any kernel
            must be visible in the baseline, not just net's. *)
         let sharded_s =
           List.map
             (fun jobs ->
                let t =
                  time (fun () -> Replay.run_many ~jobs packed ~delays recorded)
                in
                report ~scheme:name ~variant:"kernel" ~jobs ~packed_s t;
                (jobs, t))
             [ 2; 4 ]
         in
         (name, packed_s /. kernel_s, kernel_s, sharded_s, session_s))
      schemes
  in
  if smoke then begin
    (* Floor gate: a monomorphized kernel that loses to the packed loop
       it replaces is a regression outright, whatever the baseline file
       says.  Every scheme is held to >= 1.0x (measured best-of-5 on
       both sides, so the ratio is stable even at smoke scale); the
       flattened k-trie is additionally held to the 1.5x it was built to
       deliver over the hashtable walk. *)
    List.iter
      (fun (name, ratio, _, _, _) ->
         check
           (Printf.sprintf "%s: kernel %.2fx >= 1.0x over packed" name ratio)
           (ratio >= 1.0))
      measured;
    (match
       List.find_opt (fun (name, _, _, _, _) -> name = "path-profile-k2") measured
     with
     | Some (_, ratio, _, _, _) ->
       check
         (Printf.sprintf
            "path-profile-k2: flattened trie %.2fx >= 1.5x over packed" ratio)
         (ratio >= 1.5)
     | None -> ());
    (* Aggregate throughput floor for the NET fast engine: at jobs=4 the
       multiplexed sweep must clear 1e8 lane-instances/s (n * delay
       lanes / wall).  The loop-index engine replays from per-recording
       run summaries, so this holds even clamped to one worker. *)
    (match List.find_opt (fun (name, _, _, _, _) -> name = "net") measured with
     | Some (_, _, _, sharded_s, _) ->
       (match List.assoc_opt 4 sharded_s with
        | None -> ()
        | Some t4 ->
          let aggregate = float_of_int (n * k) /. t4 in
          check
            (Printf.sprintf
               "net: jobs=4 aggregate %.2e >= 1e8 lane-instances/s" aggregate)
            (aggregate >= 1e8))
     | None -> ());
    (* Session gate: the recording pushed through a [Session] as
       batches runs the same kernel as the in-memory replay, plus one
       batch copy and the session's id/arrival gate per frame.  It must
       keep >= 0.8x of the kernel's instances/s; a session that fell
       back to the generic walker runs at the packed loop's 0.3-0.4x. *)
    List.iter
      (fun (name, _, kernel_s, _, session_s) ->
         let ratio = kernel_s /. session_s in
         check
           (Printf.sprintf "%s: session %.2fx of kernel inst/s >= 0.8x" name
              ratio)
           (ratio >= 0.8))
      measured;
    (* Regression gate against the committed baseline: the packed->kernel
       speedup is a ratio of two loops over the same data on the same
       machine, so it transfers across hosts where raw instances/s does
       not.  >5% below the recorded ratio fails. *)
    List.iter
      (fun (name, measured, _, _, _) ->
         (* The ratio gate covers the paper's schemes only: the k-kernels'
            packed->kernel ratio hovers near 1x (they strip module
            indirection but keep the per-instance trie/counter walk), so
            a 5% band on it would gate on noise.  Their rows still land
            in the baseline file for trend reading. *)
         if List.mem name [ "net"; "path-profile" ] then
           match baseline_speedup ~scheme:name with
           | None ->
             Format.printf "  %s: no baseline in %s@." name bench_replay_file;
             ok := false
           | Some recorded_speedup ->
             let floor = 0.95 *. recorded_speedup in
             check
               (Printf.sprintf
                  "%s: kernel speedup %.2fx within 5%% of baseline %.2fx" name
                  measured recorded_speedup)
               (measured >= floor))
      measured;
    (* Scaling gate: chunk sharding must never make more cores a
       regression again — jobs=4 at least matches jobs=1 on the net
       kernel, on this machine, right now. *)
    List.iter
      (fun (name, _, kernel_s, sharded_s, _) ->
         if name = "net" then
           match List.assoc_opt 4 sharded_s with
           | None -> ()
           | Some t4 ->
             check
               (Printf.sprintf
                  "net: jobs=4 throughput %.2e >= jobs=1 %.2e inst/s"
                  (float_of_int n /. t4)
                  (float_of_int n /. kernel_s))
               (t4 <= kernel_s)
         else if name = "path-profile-k2" then
           (* The k-trie kernel has no compressed-summary fast path:
              each lane group re-walks the instance stream, so at smoke
              scale the parallel gain and the cross-domain memory
              contention are the same order and the measured t4/t1
              ratio spans 0.8-1.4 run to run (on a core-starved CI box
              jobs=4 even clamps to one worker).  The gate therefore
              allows 50% slack — above that noise band, still well
              below the >=2x signature of the lane re-walk regression
              class this gate exists to catch. *)
           match List.assoc_opt 4 sharded_s with
           | None -> ()
           | Some t4 ->
             check
               (Printf.sprintf
                  "path-profile-k2: jobs=4 %.2e vs jobs=1 %.2e inst/s (50%% \
                   slack)"
                  (float_of_int n /. t4)
                  (float_of_int n /. kernel_s))
               (t4 <= kernel_s *. 1.5))
      measured
  end
  else begin
    let oc = open_out bench_replay_file in
    List.iter (output_string oc) (List.rev !lines);
    close_out oc;
    Format.printf "  wrote %s@." bench_replay_file
  end;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Full reproductions                                                  *)
(* ------------------------------------------------------------------ *)

let reproductions () =
  heading "Table 1 — benchmark set (measured vs paper)";
  print_string (Experiments.Table1.render ());
  heading "Table 2 — paths vs unique path heads (measured vs paper)";
  print_string (Experiments.Table2.render ());
  (* Figures 2 and 3 share the sweep; compute once. *)
  let figures = Hotpath_experiments.Figures23.compute () in
  let render_fig ~hit ~zoom title =
    heading title;
    print_string
      (Tablefmt.render (Hotpath_experiments.Figures23.to_table figures ~hit ~zoom))
  in
  render_fig ~hit:true ~zoom:true
    "Figure 2 (zoom) — hit rate vs profiled flow, <= 10% region";
  render_fig ~hit:false ~zoom:true
    "Figure 3 (zoom) — noise rate vs profiled flow, <= 10% region";
  heading "Figures 2/3 — summary of the average series";
  List.iter
    (fun su ->
       let show = function Some v -> Printf.sprintf "%.1f%%" v | None -> "n/a" in
       Format.printf
         "  %-13s hit@10%%flow=%s (%d benchmarks)  noise@10%%flow=%s  \
          hit@tau50=%.1f%%  noise@tau50=%.1f%%@."
         su.Hotpath_experiments.Figures23.su_scheme
         (show su.Hotpath_experiments.Figures23.su_hit_at_10pct)
         su.Hotpath_experiments.Figures23.su_hit_at_10pct_n
         (show su.Hotpath_experiments.Figures23.su_noise_at_10pct)
         su.Hotpath_experiments.Figures23.su_hit_at_delay50
         su.Hotpath_experiments.Figures23.su_noise_at_delay50)
    (Hotpath_experiments.Figures23.summarize figures);
  heading "Figure 4 — NET counter space normalized to path-profile";
  print_string (Experiments.Fig4.render ());
  heading "Figure 5 — Dynamo speedup over native (no-bail-out set, 8x flow)";
  print_string (Experiments.Fig5.render ());
  heading "Figure 5 (extended) — all benchmarks, showing gcc/go bail-out";
  print_string (Experiments.Fig5.render ~all:true ());
  heading "Ablation — NET variants (re-arm vs once vs last-executed-tail)";
  print_string (Experiments.Ablations.render_net_variants ());
  heading "Ablation — NET vs Boa branch-profile construction (Section 7)";
  print_string (Experiments.Ablations.render_boa ());
  heading "Ablation — hot-threshold sensitivity";
  print_string (Experiments.Ablations.render_thresholds ());
  heading "Ablation — Dynamo cost-model sensitivity (tau=50 averages)";
  print_string (Experiments.Ablations.render_cost_sensitivity ());
  heading "Offline — edge-vs-path showdown (Ball-Mataga-Sagiv)";
  print_string (Experiments.Offline.render_showdown ());
  heading "Offline — sampling profiler accuracy";
  print_string (Experiments.Offline.render_sampling ());
  heading "Phase-change study — retirement policies (Section 6.1 future work)";
  print_string (Experiments.Phases.render ());
  heading "Ablation — fragment-cache pressure policies (flush vs LRU)";
  print_string (Experiments.Ablations.render_cache_policies ());
  heading "Robustness — hit rates across 5 regenerated workload seeds";
  print_string (Experiments.Ablations.render_seed_robustness ())

(* ------------------------------------------------------------------ *)
(* Serve daemon: sustained ingest and per-tenant latency               *)
(* ------------------------------------------------------------------ *)

let serve_bench ~smoke ~scale =
  heading
    (Printf.sprintf "Serve daemon — concurrent tenants%s"
       (if smoke then " (smoke)" else ""));
  let bench = Suite.find_exn "compress" in
  let buf = Buffer.create (1 lsl 20) in
  let summary =
    Suite.record_stream ~scale bench ~sink:(Buffer.add_string buf)
  in
  let trace = Buffer.contents buf in
  Format.printf "  trace per tenant: %d instances, %d paths, %d bytes@."
    summary.Recorder.cs_instances summary.Recorder.cs_paths
    (String.length trace);
  let n_clients = if smoke then 4 else 8 in
  let sends_each = if smoke then 2 else 4 in
  let socket_path = Filename.temp_file "hotpath_serve" ".sock" in
  match
    Serve.Server.create ~queue_capacity:8 ~drain_burst:4 ~socket_path ()
  with
  | Error e ->
    Format.printf "  cannot start server: %s@." e;
    exit 1
  | Ok server ->
    let server_domain = Domain.spawn (fun () -> Serve.Server.run server) in
    if not (Serve.Client.wait_ready socket_path) then begin
      Format.printf "  server never became ready@.";
      exit 1
    end;
    let t0 = Unix.gettimeofday () in
    let per_client client =
      (* Each send is a distinct tenant: the latency sample is the whole
         exchange (connect, handshake, stream, replay, reply). *)
      List.init sends_each (fun k ->
          let tenant = Printf.sprintf "tenant-%d-%d" client k in
          let s0 = Unix.gettimeofday () in
          let reply =
            Serve.Client.send ~socket_path ~tenant ~scheme:"net"
              ~delays:[ 10; 50 ] ~chunk_bytes:65536 trace
          in
          let latency = Unix.gettimeofday () -. s0 in
          let ok =
            match reply with
            | Ok lines ->
              List.exists (fun f -> Events.kind f = Some "serve.ok") lines
            | Error _ -> false
          in
          (latency, ok))
    in
    let results =
      Pool.map ~cap:false ~jobs:n_clients per_client
        (List.init n_clients Fun.id)
      |> List.concat
    in
    let wall = Unix.gettimeofday () -. t0 in
    Serve.Server.stop server;
    Domain.join server_domain;
    let st = Serve.Server.stats server in
    let lats = Array.of_list (List.map fst results) in
    let oks = List.length (List.filter snd results) in
    let total = n_clients * sends_each in
    let ingest = float_of_int st.Serve.Server.instances /. wall in
    let pct p = 1000. *. Stats.percentile lats ~p in
    Format.printf "  %d clients x %d sends: %d/%d serve.ok in %.2fs@."
      n_clients sends_each oks total wall;
    Format.printf "  ingest: %.2e instances/s sustained (%d instances)@."
      ingest st.Serve.Server.instances;
    Format.printf "  tenant latency: p50=%.1fms p95=%.1fms p99=%.1fms@."
      (pct 50.) (pct 95.) (pct 99.);
    Format.printf "  server: completed=%d errored=%d queue high-water=%d@."
      st.Serve.Server.completed st.Serve.Server.errored
      st.Serve.Server.queue_high_water;
    if smoke then begin
      (* CI gate: every tenant served (zero dropped), no server-side
         errors, and sustained ingest above a floor set ~10x below what
         a loaded CI box measures. *)
      let floor = 100_000. in
      let pass =
        oks = total && st.Serve.Server.completed = total
        && st.Serve.Server.errored = 0 && ingest >= floor
      in
      Format.printf "  smoke gate (ok=%d/%d, errored=%d, ingest>=%.0e): %s@."
        oks total st.Serve.Server.errored floor
        (if pass then "PASS" else "FAIL");
      if not pass then exit 1
    end

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (* Microbenchmarks run first: the reproductions cache hundreds of MB of
     recordings, and the resulting GC pressure would distort per-op
     timings. *)
  if mode = "all" || mode = "quick" then begin
    heading "Bechamel microbenchmarks — profiling primitives";
    run_bechamel (ops_tests ());
    heading "Bechamel microbenchmarks — per-experiment kernels";
    run_bechamel (experiment_tests ())
  end;
  if mode = "events" then
    (* Prices the observability layer: a replay with events disabled must
       match the no-events baseline, and per-window emission to a real
       file must stay under 3% of throughput. *)
    events_overhead_demo
      ~scale:(if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 32.0);
  if mode = "kernel" then begin
    (* Packed loop vs monomorphized kernels vs lane-parallel sharding.
       Full mode measures a 1M+-instance trace and (re)writes the
       BENCH_replay.json baseline; --smoke is the CI gate — identity
       assertions plus a ratio regression check against that baseline. *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    let scale =
      if smoke then 2.0
      else if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2)
      else 16.0
    in
    kernel_bench ~smoke ~scale
  end;
  if mode = "serve" then begin
    (* The serving path priced end to end: concurrent clients stream
       traces at a daemon, per-tenant latency percentiles and sustained
       ingest rate come back.  --smoke is the CI gate. *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    let scale =
      if smoke then 1.0
      else if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2)
      else 4.0
    in
    serve_bench ~smoke ~scale
  end;
  if mode = "streaming" then begin
    (* Its own mode, not part of "all": VmHWM is a process-lifetime
       watermark, so the demonstration needs a process that has not
       already materialized the reproduction caches.  Full mode
       (re)writes the BENCH_ingest.json baseline; --smoke is the CI
       gate (bit-identity plus mmap >= read throughput). *)
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    let scale =
      (* Smoke runs at scale 4: big enough that the replay phases take
         tens of milliseconds (the mmap-vs-read gate compares best-of
         minima, and shorter runs put scheduler jitter at the same order
         as the signal), small enough for a CI lane. *)
      if smoke then 4.0
      else if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2)
      else 8.0
    in
    streaming_demo ~smoke ~scale
  end;
  if mode = "all" || mode = "tables" then reproductions ()
