(* replay-mmap: map a recorded HOTPATH3 file and replay it through
   [Replay.run_many_mapped] on eight delay lanes.  Instance-frame decode
   and the Session walk do almost all the work; there is no lint and no
   socket. *)

module Suite = Hotpath_workloads.Suite
module Recorder = Hotpath_trace.Recorder
module Stream = Hotpath_trace.Serialize.Stream
module Mapped = Stream.Mapped
module Batch = Hotpath_trace.Batch
module Replay = Hotpath_prediction.Replay
module Session = Hotpath_prediction.Session
module Schemes = Hotpath_prediction.Schemes

(* Low-path-count traces (a few thousand paths or fewer each). *)
let benches = [| "deltablue"; "compress"; "li" |]

let schemes =
  Array.map
    (fun n -> (n, Schemes.of_name_exn n))
    [| "net"; "path-profile"; "net-k2"; "path-profile-k2" |]

let delays = [ 2; 5; 10; 50; 100; 500; 1000; 5000 ]

(* Three program variants per benchmark, recorded at a sixth, a third
   and a half of the calibrated flow (3e4 to 2e5 instances per trace):
   ops of 10 to 250 ms, hundreds per run.  The different sizes spread
   the latencies of each (benchmark, scheme) pair, so no percentile sits
   in a gap between two clusters of op kinds. *)
let variants = 3
let scale_of_variant v = float_of_int (v + 1) /. 6.0

let n_traces = Array.length benches * variants

let ops =
  Array.concat
    (List.init n_traces (fun t -> Array.init (Array.length schemes) (fun s -> (t, s))))

type trace = { path : string; instances : int; bytes : int }

(* Trace [i] is variant [i mod variants] of its benchmark. *)
let scale i = scale_of_variant (i mod variants)

let record ~dir i b =
  let path = Filename.concat dir (Printf.sprintf "%s-%d.hp3" b.Suite.b_name i) in
  let oc = open_out_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Suite.record_stream ~scale:(scale i) b ~sink:(output_string oc))
  in
  { path; instances = s.Recorder.cs_instances; bytes = (Unix.stat path).Unix.st_size }

let fused t scheme =
  match Mapped.map_file ~path:t.path with
  | Error e -> Error e
  | Ok m -> Replay.run_many_mapped scheme ~delays m

let summarize os =
  match os with
  | (o : Session.outcome) :: _ -> (o.Session.total_instances, Util.outcomes_digest os)
  | [] -> (0, "")

(* The traced form of one op: the calls [run_many_mapped] makes, one
   span each. *)
let decomposed sp ~op t scheme =
  let span name f = Span.with_span sp name f in
  Span.with_span sp ~op "op" (fun () ->
      match span "serialize.map" (fun () -> Mapped.map_file ~path:t.path) with
      | Error e -> Error e
      | Ok m -> (
        match
          span "session.create" (fun () ->
              Session.create ~lint:false scheme ~delays ~program:(Mapped.program m)
                ~table:(Mapped.table m))
        with
        | Error e -> Error e
        | Ok sess ->
          let batch = Batch.create () in
          let rec loop () =
            match span "serialize.decode" (fun () -> Mapped.next_batch m batch) with
            | Error e -> Error e
            | Ok false -> Ok ()
            | Ok true -> (
              match span "session.push" (fun () -> Session.push_batch sess batch) with
              | Error e -> Error e
              | Ok () -> loop ())
          in
          (match loop () with
           | Error e -> Error e
           | Ok () -> Ok (span "session.finish" (fun () -> Session.finish sess)))))

let run ~dir ~seed ~seconds ~trace:traced =
  let bs = Inputs.variants ~seed ~variants benches in
  let traces, setup_s =
    Util.repeat_setup ~times:Util.setup_repeats
      ~fingerprint:(fun ts -> String.concat "" (Array.to_list (Array.map (fun t -> Digest.file t.path) ts)))
      (fun () -> Array.mapi (record ~dir) bs)
  in
  let st = Inputs.rng ~seed ~salt:1 in
  let run_one i =
    let b, s = ops.(i) in
    Util.run_op i (fun () -> fused traces.(b) (snd schemes.(s))) summarize
  in
  let window = if traced then seconds /. 2.0 else seconds in
  let { Util.samples; measured_s; inst_per_s } =
    Util.passes ~st ~n:(Array.length ops) ~seconds:window
      ~min_ops:(if traced then 0 else Util.min_ops) run_one
  in
  let rss_mb = Util.vm_hwm_mb "self" in
  (* The oracle: in-memory kernels over a materialized [Suite.record] —
     no serializer and no Session — computed after the measurement. *)
  let reference = Array.mapi (fun i b -> Suite.record ~scale:(scale i) b) bs in
  let expected_outcomes =
    Array.map (fun (b, s) -> Replay.run_many (snd schemes.(s)) ~delays reference.(b)) ops
  in
  let expected = Array.map (fun os -> snd (summarize os)) expected_outcomes in
  let attempted, failed = Util.check samples ~expected in
  let e2e = Util.end_to_end ~setup_s ~samples ~inst_per_s ~rss_mb in
  let notes =
    [
      Printf.sprintf "%d ops over %d distinct (trace x scheme) pairs, %d lanes each"
        (List.length samples) (Array.length ops) (List.length delays);
      Printf.sprintf "traces: %s"
        (String.concat ", "
           (Array.to_list
              (Array.mapi
                 (fun i t ->
                   Printf.sprintf "%s %d inst %d B" bs.(i).Suite.b_name t.instances t.bytes)
                 traces)));
    ]
  in
  if not traced then
    { Util.e2e; layers = []; attempted; failed; ops = List.length samples;
      measured_s; spans = []; notes }
  else begin
    let sp = Span.create () in
    (* Set-up, decomposed: record, then encode, per trace. *)
    Array.iteri
      (fun i b ->
        Span.with_span sp ~op:(-1 - i) "setup" (fun () ->
            let r = Span.with_span sp "suite.record" (fun () -> Suite.record ~scale:(scale i) b) in
            Span.with_span sp "serialize.encode" (fun () -> Stream.write r ignore)))
      bs;
    let occurrence = ref 0 in
    let { Util.samples = traced_samples; _ } =
      Util.passes ~st ~n:(Array.length ops) ~seconds:window ~min_ops:0 (fun i ->
          let b, s = ops.(i) in
          let op = !occurrence in
          incr occurrence;
          let scheme = snd schemes.(s) in
          let t = traces.(b) in
          let d = Util.run_op i (fun () -> decomposed sp ~op t scheme) summarize in
          let f =
            Util.run_op i
              (fun () -> Span.with_span sp ~op "replay.mapped" (fun () -> fused t scheme))
              summarize
          in
          (* The decomposed calls must reproduce the fused call. *)
          if d.Util.summary <> f.Util.summary && d.Util.error = None then
            { d with Util.error = Some "decomposed outcome differs from run_many_mapped" }
          else d)
    in
    let a2, f2 = Util.check traced_samples ~expected in
    let spans = Span.spans sp in
    let self = Span.self_times spans in
    let by_op = Util.self_by_op self in
    (* Glue: the fused call minus the decomposed map, create, decode,
       push and finish of the same op occurrence. *)
    let glue =
      List.map
        (fun o ->
          Util.self_of by_op o "replay.mapped"
          -. List.fold_left
               (fun a n -> a +. Util.self_of by_op o n)
               0.0
               [ "serialize.map"; "session.create"; "serialize.decode";
                 "session.push"; "session.finish" ])
        (Util.op_ids by_op)
    in
    let decoded = Util.instances traced_samples in
    let total = Util.total by_op in
    let pass_bytes = Array.fold_left (fun a (b, _) -> a + traces.(b).bytes) 0 ops in
    let record_s = total "suite.record" in
    let recorded = Array.fold_left (fun a t -> a + t.instances) 0 traces in
    let layers =
      [
        ("serialize.map_s", Util.op_median by_op "serialize.map");
        ("serialize.decode_s", Util.op_median by_op "serialize.decode");
        ("serialize.decode_inst_per_s", Util.rate (float_of_int decoded) (total "serialize.decode"));
        ("serialize.bytes", float_of_int pass_bytes);
        ("serialize.encode_s", total "serialize.encode");
        ("session.create_s", Util.op_median by_op "session.create");
        ("session.push_s", Util.op_median by_op "session.push");
        ("session.push_inst_per_s", Util.rate (float_of_int decoded) (total "session.push"));
        ("session.finish_s", Util.op_median by_op "session.finish");
        ("replay.mapped_s", Util.op_median by_op "replay.mapped");
        ("replay.mapped_glue_s", if glue = [] then 0.0 else Util.median glue);
        ("suite.record_s", record_s);
        ("suite.record_inst_per_s", Util.rate (float_of_int recorded) record_s);
        ("trace.overhead_ratio", Util.rate (float_of_int decoded) (Util.op_span_s self) /. inst_per_s);
      ]
      @ Util.prediction_layers (Array.to_list expected_outcomes)
    in
    { Util.e2e; layers; attempted = attempted + a2;
      failed = failed + f2;
      ops = List.length samples + List.length traced_samples; measured_s;
      spans; notes }
  end
