(* figures-suite: the paper-figure path on in-memory recordings of all
   nine benchmarks.  An op is one Figure 2/3 delay sweep (benchmark x
   scheme) or one Figure 5 Dynamo simulation (benchmark x scheme x
   delay).  It never decodes, lints or touches a socket, so it is the
   workload where serializer, Session and serve changes should not
   show. *)

module Suite = Hotpath_workloads.Suite
module Recorder = Hotpath_trace.Recorder
module Path_table = Hotpath_trace.Path_table
module Stream = Hotpath_trace.Serialize.Stream
module Replay = Hotpath_prediction.Replay
module Session = Hotpath_prediction.Session
module Schemes = Hotpath_prediction.Schemes
module Sweep = Hotpath_metrics.Sweep
module Hot_set = Hotpath_metrics.Hot_set
module Rates = Hotpath_metrics.Rates
module Engine = Hotpath_dynamo.Engine
module Cost_model = Hotpath_dynamo.Cost_model
module Freq = Hotpath_analysis.Freq
module Figures23 = Hotpath_experiments.Figures23
module Fig5 = Hotpath_experiments.Fig5

(* An eighth of each benchmark's calibrated flow: 8e3 to 5e4
   instances, so one pass over all 123 ops takes about two seconds and
   a run holds a dozen passes. *)
let scale = 0.125

let benches = Array.of_list Suite.all
let sweep_schemes = Array.of_list Figures23.schemes

(* Figure 5's columns. *)
let engine_schemes =
  Array.map (fun n -> (n, Schemes.of_name_exn n)) [| "net"; "path-profile"; "net-k2"; "static" |]

type op = Sweep_op of int * int | Engine_op of int * int * int

let ops =
  let sweeps =
    List.concat_map
      (fun b -> List.init (Array.length sweep_schemes) (fun s -> Sweep_op (b, s)))
      (List.init (Array.length benches) Fun.id)
  in
  let dynamo =
    List.map
      (fun (b : Suite.benchmark) ->
        let rec index i = if benches.(i).Suite.b_name = b.Suite.b_name then i else index (i + 1) in
        index 0)
      Suite.dynamo_set
  in
  let engines =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun s -> List.map (fun d -> Engine_op (b, s, d)) Fig5.delays)
          (List.init (Array.length engine_schemes) Fun.id))
      dynamo
  in
  Array.of_list (sweeps @ engines)

type env = { r : Recorder.t; hot : Hot_set.t }

let hot_set r =
  Hot_set.compute ~freq:(Recorder.frequencies r) ~total_flow:(Recorder.num_instances r)
    ~threshold:Suite.hot_threshold

(* Set-up: record, take the hot set, and run the static estimate the
   [static] scheme reads (memoized per program), per benchmark. *)
let setup bs =
  Array.map
    (fun b ->
      let r = Suite.record ~scale b in
      ignore (Freq.cached r.Recorder.program);
      { r; hot = hot_set r })
    bs

(* ---- output digests -------------------------------------------------- *)

let points_digest (ps : Sweep.point list) =
  let b = Buffer.create 1024 in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  let flt v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  List.iter
    (fun (p : Sweep.point) ->
      int p.Sweep.delay;
      flt p.Sweep.profiled_pct;
      flt p.Sweep.hit_rate;
      flt p.Sweep.noise_rate;
      int p.Sweep.predictions;
      int p.Sweep.counter_space;
      int p.Sweep.profiling_ops;
      int p.Sweep.collection_ops)
    ps;
  Digest.string (Buffer.contents b)

let engine_digest (x : Engine.result) =
  let b = Buffer.create 256 in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  let flt v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  Buffer.add_string b x.Engine.r_scheme;
  int x.Engine.r_delay;
  List.iter flt
    [ x.Engine.r_native_cycles; x.Engine.r_dynamo_cycles; x.Engine.r_speedup_pct;
      x.Engine.r_cycles_fragment; x.Engine.r_cycles_interp; x.Engine.r_cycles_profile;
      x.Engine.r_cycles_overhead; x.Engine.r_cycles_flush; x.Engine.r_cache_coverage_pct ];
  int (Bool.to_int x.Engine.r_bailed);
  List.iter int
    [ x.Engine.r_fragments; x.Engine.r_flushes; x.Engine.r_full_hits;
      x.Engine.r_partial_hits; x.Engine.r_misses; x.Engine.r_native_tail ];
  Digest.string (Buffer.contents b)

(* A sweep point from a lane outcome, as Sweep builds it. *)
let point (o : Replay.outcome) hot =
  let rates = Rates.operational o hot in
  {
    Sweep.delay = o.Replay.delay;
    profiled_pct = rates.Rates.profiled_flow_pct;
    hit_rate = rates.Rates.hit_rate;
    noise_rate = rates.Rates.noise_rate;
    predictions = Array.length o.Replay.predictions;
    counter_space = o.Replay.counter_space;
    profiling_ops = o.Replay.profiling_ops;
    collection_ops = o.Replay.collection_ops;
  }

let config s delay =
  let name, scheme = engine_schemes.(s) in
  Engine.config ~scheme ~scheme_costs:(Engine.costs_for ~scheme:name Cost_model.default) ~delay ()

(* ---- the fused ops and their reference ---------------------------------- *)

let fused envs op =
  match op with
  | Sweep_op (b, s) ->
    let e = envs.(b) in
    let ps = Sweep.run (snd sweep_schemes.(s)) e.r ~hot:e.hot ~delays:Sweep.default_delays in
    Ok (Recorder.num_instances e.r, points_digest ps)
  | Engine_op (b, s, d) ->
    let e = envs.(b) in
    Ok (Recorder.num_instances e.r, engine_digest (Engine.run (config s d) e.r))

(* The oracle, another public path per op kind: sweeps replay through a
   Session (the generic per-instance walker, not the batch kernels);
   Dynamo runs step an [Engine.Stepper] over the recording read back
   through the HOTPATH3 pull reader. *)
type expected = { digest : string; outcomes : Session.outcome list; result : Engine.result option }

let reference envs op =
  match op with
  | Sweep_op (b, s) ->
    let e = envs.(b) in
    let r = e.r in
    let sess =
      Result.get_ok
        (Session.create ~lint:false (snd sweep_schemes.(s)) ~delays:Sweep.default_delays
           ~program:r.Recorder.program ~table:r.Recorder.table)
    in
    Result.get_ok (Session.push_chunk sess ~ids:r.Recorder.instances ~arrivals:r.Recorder.arrivals);
    let os = Session.finish sess in
    { digest = points_digest (List.map (fun o -> point o e.hot) os); outcomes = os; result = None }
  | Engine_op (b, s, d) ->
    let r = envs.(b).r in
    let rd = Stream.of_recorder r in
    let table = Stream.table rd in
    let st =
      Engine.Stepper.create (config s d) ~program:r.Recorder.program
        ~lookup:(fun id -> Path_table.path table id)
    in
    let rec loop () =
      match Stream.next rd with
      | Ok None -> ()
      | Ok (Some c) ->
        Array.iteri
          (fun j id ->
            Engine.Stepper.step st ~path:(Path_table.path table id)
              ~arrival:(Recorder.arrival_of_code (Bytes.get c.Stream.arrivals j)))
          c.Stream.ids;
        loop ()
      | Error e -> failwith e
    in
    loop ();
    let x = Engine.Stepper.finalize st in
    { digest = engine_digest x; outcomes = []; result = Some x }

(* The traced form of one op. *)
let decomposed sp ~op envs o =
  let span name f = Span.with_span sp name f in
  Span.with_span sp ~op "op" (fun () ->
      match o with
      | Sweep_op (b, s) ->
        let e = envs.(b) in
        let os =
          span "replay.run_many" (fun () ->
              Replay.run_many (snd sweep_schemes.(s)) ~delays:Sweep.default_delays e.r)
        in
        let ps = List.map (fun o -> span "rates.operational" (fun () -> point o e.hot)) os in
        Ok (Recorder.num_instances e.r, points_digest ps)
      | Engine_op (b, s, d) ->
        let e = envs.(b) in
        let x = span "engine.run" (fun () -> Engine.run (config s d) e.r) in
        Ok (Recorder.num_instances e.r, engine_digest x))

let run ~dir:_ ~seed ~seconds ~trace:traced =
  let bs = Array.map (fun (b : Suite.benchmark) -> Inputs.bench ~seed b.Suite.b_name) benches in
  let envs, setup_s =
    Util.repeat_setup ~times:Util.setup_repeats
      ~fingerprint:(fun envs ->
        String.concat ""
          (Array.to_list
             (Array.map
                (fun e -> Digest.string (Marshal.to_string (e.r.Recorder.instances, e.r.Recorder.arrivals) []))
                envs)))
      ~discard:(fun _ -> Gc.full_major ())
      (fun () -> setup bs)
  in
  let st = Inputs.rng ~seed ~salt:3 in
  let window = if traced then seconds /. 2.0 else seconds in
  let { Util.samples; measured_s; inst_per_s } =
    Util.passes ~st ~n:(Array.length ops) ~seconds:window
      ~min_ops:(if traced then 0 else Util.min_ops)
      (fun i -> Util.run_op i (fun () -> fused envs ops.(i)) Fun.id)
  in
  let rss_mb = Util.vm_hwm_mb "self" in
  let refs = Array.map (reference envs) ops in
  let expected = Array.map (fun x -> x.digest) refs in
  let attempted, failed = Util.check samples ~expected in
  let e2e = Util.end_to_end ~setup_s ~samples ~inst_per_s ~rss_mb in
  let notes =
    [
      Printf.sprintf "%d ops over %d distinct ops (%d sweeps of %d delays, %d Dynamo runs)"
        (List.length samples) (Array.length ops)
        (Array.length benches * Array.length sweep_schemes)
        (List.length Sweep.default_delays)
        (Array.length ops - (Array.length benches * Array.length sweep_schemes));
      Printf.sprintf "recordings: %d instances over %d benchmarks"
        (Array.fold_left (fun a e -> a + Recorder.num_instances e.r) 0 envs)
        (Array.length envs);
    ]
  in
  if not traced then
    { Util.e2e; layers = []; attempted; failed; ops = List.length samples; measured_s;
      spans = []; notes }
  else begin
    let sp = Span.create () in
    Array.iteri
      (fun i b ->
        Span.with_span sp ~op:(-1 - i) "setup" (fun () ->
            let r = Span.with_span sp "suite.record" (fun () -> Suite.record ~scale b) in
            ignore (Span.with_span sp "hot_set.compute" (fun () -> hot_set r));
            ignore (Span.with_span sp "freq.estimate" (fun () -> Freq.estimate r.Recorder.program))))
      bs;
    let occurrence = ref 0 in
    let { Util.samples = traced_samples; _ } =
      Util.passes ~st ~n:(Array.length ops) ~seconds:window ~min_ops:0 (fun i ->
          let op = !occurrence in
          incr occurrence;
          Util.run_op i (fun () -> decomposed sp ~op envs ops.(i)) Fun.id)
    in
    let a2, f2 = Util.check traced_samples ~expected in
    let spans = Span.spans sp in
    let self = Span.self_times spans in
    let by_op = Util.self_by_op self in
    let total = Util.total by_op in
    let sweep_inst, engine_inst =
      List.fold_left
        (fun (sw, en) s ->
          match ops.(s.Util.op) with
          | Sweep_op _ -> (sw + s.Util.instances, en)
          | Engine_op _ -> (sw, en + s.Util.instances))
        (0, 0) traced_samples
    in
    let results = Array.to_list (Array.map (fun x -> x.result) refs) |> List.filter_map Fun.id in
    let recorded = Array.fold_left (fun a e -> a + Recorder.num_instances e.r) 0 envs in
    let layers =
      [
        ("replay.run_many_s", Util.op_median by_op "replay.run_many");
        ("replay.run_many_inst_per_s", Util.rate (float_of_int sweep_inst) (total "replay.run_many"));
        ("suite.record_s", total "suite.record");
        ("suite.record_inst_per_s", Util.rate (float_of_int recorded) (total "suite.record"));
        ("freq.estimate_s", total "freq.estimate");
        ("hot_set.compute_s", total "hot_set.compute");
        ("rates.operational_s", Util.op_median by_op "rates.operational");
        ("engine.run_s", Util.op_median by_op "engine.run");
        ("engine.inst_per_s", Util.rate (float_of_int engine_inst) (total "engine.run"));
        ("engine.fragments", float_of_int (List.fold_left (fun a x -> a + x.Engine.r_fragments) 0 results));
        ("engine.flushes", float_of_int (List.fold_left (fun a x -> a + x.Engine.r_flushes) 0 results));
        ( "trace.overhead_ratio",
          Util.rate (float_of_int (Util.instances traced_samples)) (Util.op_span_s self)
          /. inst_per_s );
      ]
      @ Util.prediction_layers (Array.to_list (Array.map (fun x -> x.outcomes) refs))
    in
    { Util.e2e; layers; attempted = attempted + a2; failed = failed + f2;
      ops = List.length samples + List.length traced_samples; measured_s;
      spans; notes }
  end
