(* serve-mix: closed-loop exchanges with a `hotpath serve` daemon that
   runs as its own process.  Two clients each send a trace, wait for the
   reply, then send the next.  Only this workload exercises the push
   decoder, online lint, the select loop and backpressure. *)

module Suite = Hotpath_workloads.Suite
module Stream = Hotpath_trace.Serialize.Stream
module Decoder = Stream.Decoder
module Batch = Hotpath_trace.Batch
module Path_table = Hotpath_trace.Path_table
module Lint = Hotpath_trace.Lint
module Diag = Hotpath_analysis.Diag
module Replay = Hotpath_prediction.Replay
module Session = Hotpath_prediction.Session
module Schemes = Hotpath_prediction.Schemes
module Serve = Hotpath_serve.Serve
module Events = Hotpath_util.Events

(* (benchmark, scheme, scale).  gcc is path-table heavy (thousands of
   paths even at this scale); the scales keep every exchange within a
   few times the others, so no latency percentile sits in a gap between
   two far-apart exchange kinds. *)
let triples =
  [|
    ("compress", "net", 0.35);
    ("gcc", "path-profile", 0.1);
    ("deltablue", "net-k2", 0.35);
    ("li", "path-profile-k2", 0.2);
  |]

(* Program variants per triple (see [Inputs.bench]). *)
let variants = 3

(* Input [k] is variant [k mod variants] of triple [k / variants]. *)
let n_inputs = Array.length triples * variants
let triple k = triples.(k / variants)

let delays = [ 10; 50; 500 ]
let clients = 2
let chunk_bytes = 65536

(* ---- the daemon process ---------------------------------------------- *)

type daemon = { pid : int; socket : string; out : string; events : string option }

let live : daemon list ref = ref []

(* SIGTERM, then wait for the exit; SIGKILL if it has not gone within
   ten seconds.  Idempotent. *)
let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Util.now_s () +. 10.0 in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Util.now_s () < deadline ->
        Unix.sleepf 0.005;
        wait ()
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

let stop_all () = List.iter stop !live

let start ~hotpath ~dir ~idx ~with_events =
  let socket = Filename.concat dir (Printf.sprintf "s%d.sock" idx) in
  let out = Filename.concat dir (Printf.sprintf "serve%d.out" idx) in
  let events =
    if with_events then Some (Filename.concat dir (Printf.sprintf "serve%d.jsonl" idx))
    else None
  in
  let args =
    [ hotpath; "serve"; "--socket"; socket ]
    @ match events with Some e -> [ "--events"; e ] | None -> []
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process hotpath (Array.of_list args) Unix.stdin fd Unix.stderr)
  in
  let d = { pid; socket; out; events } in
  live := d :: !live;
  if not (Serve.Client.wait_ready socket) then failwith "hotpath serve never became ready";
  d

(* The daemon's final line:
   "served N connections: C completed, E errored, I instances (queue high-water Q)". *)
let final_stats d =
  List.find_map
    (fun line ->
      try
        Scanf.sscanf line
          "served %d connections: %d completed, %d errored, %d instances (queue high-water %d)"
          (fun _ c e _ q -> Some (c, e, q))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (Util.read_lines d.out)

(* ---- exchanges --------------------------------------------------------- *)

(* One line per lane with every field the reply carries. *)
let lane_summary ~delay ~instances ~predictions ~profiled ~captured ~counter_space
    ~profiling_ops ~collection_ops ~pred_hash =
  Printf.sprintf "%d:%d:%d:%d:%d:%d:%d:%d:%d;" delay instances predictions profiled
    captured counter_space profiling_ops collection_ops pred_hash

let summary_of_outcomes os =
  String.concat ""
    (List.map
       (fun (o : Session.outcome) ->
         lane_summary ~delay:o.Session.delay ~instances:o.Session.total_instances
           ~predictions:(Array.length o.Session.predictions)
           ~profiled:o.Session.profiled_instances ~captured:o.Session.captured_instances
           ~counter_space:o.Session.counter_space ~profiling_ops:o.Session.profiling_ops
           ~collection_ops:o.Session.collection_ops ~pred_hash:(Serve.outcome_hash o))
       os)

let summary_of_reply lines =
  let int f k = Option.value (Events.find_int f k) ~default:(-1) in
  match List.find_opt (fun f -> Events.kind f = Some "serve.error") lines with
  | Some f ->
    Error
      (Printf.sprintf "serve.error %s: %s"
         (Option.value (Events.find_str f "code") ~default:"?")
         (Option.value (Events.find_str f "message") ~default:"?"))
  | None when not (List.exists (fun f -> Events.kind f = Some "serve.ok") lines) ->
    Error "reply has no serve.ok"
  | None ->
    let results = List.filter (fun f -> Events.kind f = Some "serve.result") lines in
    Ok
      ( (match results with f :: _ -> int f "instances" | [] -> 0),
        String.concat ""
          (List.map
             (fun f ->
               lane_summary ~delay:(int f "delay") ~instances:(int f "instances")
                 ~predictions:(int f "predictions") ~profiled:(int f "profiled")
                 ~captured:(int f "captured") ~counter_space:(int f "counter_space")
                 ~profiling_ops:(int f "profiling_ops")
                 ~collection_ops:(int f "collection_ops") ~pred_hash:(int f "pred_hash"))
             results) )

(* [clients] closed-loop clients, one domain each, until [seconds] have
   passed and at least [min_ops] exchanges completed.  Each client walks
   the triples in seeded rounds.  [wrap] brackets each exchange (the
   traced run records a span there). *)
let load d ~traces ~seed ~salt ~seconds ~min_ops ~wrap =
  let done_ = Atomic.make 0 in
  let t0 = Util.now_s () in
  let client c =
    let st = Inputs.rng ~seed ~salt:(salt + c) in
    let acc = ref [] and n = ref 0 in
    let go () = Util.now_s () -. t0 < seconds || Atomic.get done_ < min_ops in
    while go () do
      Array.iter
        (fun i ->
          if go () then begin
            let _, scheme, _ = triple i in
            let tenant = Printf.sprintf "c%d-%d-%d-in%d" c salt !n i in
            incr n;
            let s =
              wrap c !n (fun () ->
                  Util.run_op i
                    (fun () ->
                      Result.bind
                        (Serve.Client.send ~socket_path:d.socket ~tenant ~scheme ~delays
                           ~chunk_bytes traces.(i))
                        summary_of_reply)
                    Fun.id)
            in
            Atomic.incr done_;
            acc := s :: !acc
          end)
        (Inputs.permutation st n_inputs)
    done;
    List.rev !acc
  in
  let cpu0 = Util.cpu_s d.pid in
  let domains = List.init clients (fun c -> Domain.spawn (fun () -> client c)) in
  let samples = List.concat_map Domain.join domains in
  let wall = Util.now_s () -. t0 in
  (samples, t0, wall, Util.cpu_s d.pid -. cpu0)

(* ---- the traced in-process replay of one exchange ---------------------- *)

type inproc = { outcomes : Session.outcome list; chunks : int; diags : int; paths : int }

(* What the daemon does with one exchange, as separate public calls:
   push decode, lint attach and check, Session push and finish. *)
let in_process sp ~op trace scheme =
  let span name f = Span.with_span sp name f in
  Span.with_span sp ~op "inproc" (fun () ->
      let d = Decoder.create () in
      let batch = Batch.create () in
      let state = ref None and chunks = ref 0 and diags = ref 0 in
      let len = String.length trace in
      let rec pump () =
        match span "serialize.push_decode" (fun () -> Decoder.next_batch d batch) with
        | Error e -> Error e
        | Ok Decoder.B_need_more -> Ok false
        | Ok (Decoder.B_end _) -> Ok true
        | Ok (Decoder.B_program program) -> (
          let table = Decoder.table d in
          match span "lint.attach" (fun () -> Lint.Incremental.create ~program ~table) with
          | Error ds -> Error (Diag.to_string (List.hd ds))
          | Ok lint -> (
            diags := !diags + List.length (Lint.Incremental.program_diags lint);
            match
              span "session.create" (fun () ->
                  Session.create ~lint:false scheme ~delays ~program ~table)
            with
            | Error e -> Error e
            | Ok sess ->
              state := Some (lint, sess);
              pump ()))
        | Ok Decoder.B_batch -> (
          match !state with
          | None -> Error "instances before the program frame"
          | Some (lint, sess) -> (
            incr chunks;
            let ds = span "lint.check" (fun () -> Lint.Incremental.check_batch lint batch) in
            diags := !diags + List.length ds;
            if Diag.has_errors ds then Error "lint rejected a chunk"
            else
              match span "session.push" (fun () -> Session.push_batch sess batch) with
              | Error e -> Error e
              | Ok () -> pump ()))
      in
      let rec feed pos =
        if pos >= len then Error "stream ended before its end frame"
        else begin
          let n = min chunk_bytes (len - pos) in
          span "serialize.push_decode" (fun () -> Decoder.feed d trace ~pos ~len:n);
          match pump () with
          | Error e -> Error e
          | Ok false -> feed (pos + n)
          | Ok true -> (
            match !state with
            | None -> Error "no program frame"
            | Some (_, sess) ->
              let outcomes = span "session.finish" (fun () -> Session.finish sess) in
              Ok
                {
                  outcomes;
                  chunks = !chunks;
                  diags = !diags;
                  paths = Path_table.size (Decoder.table d);
                })
        end
      in
      feed 0)

(* ---- the workload ------------------------------------------------------ *)

let run ~dir ~hotpath ~seed ~seconds ~trace:traced =
  let bs = Inputs.variants ~seed ~variants (Array.map (fun (n, _, _) -> n) triples) in
  let schemes = Array.init n_inputs (fun k -> let _, s, _ = triple k in Schemes.of_name_exn s) in
  let scale k = let _, _, s = triple k in s in
  let idx = ref 0 in
  let (traces, d), setup_s =
    Util.repeat_setup ~times:Util.setup_repeats
      ~fingerprint:(fun (ts, _) -> String.concat "" (Array.to_list (Array.map Digest.string ts)))
      ~discard:(fun (_, d) -> stop d)
      (fun () ->
        let ts = Array.mapi (fun i b -> Inputs.trace_bytes ~scale:(scale i) b) bs in
        incr idx;
        (ts, start ~hotpath ~dir ~idx:!idx ~with_events:traced))
  in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let window = if traced then seconds /. 2.0 else seconds in
      let samples, t0, wall, cpu =
        load d ~traces ~seed ~salt:10 ~seconds:window
          ~min_ops:(if traced then 0 else Util.min_ops)
          ~wrap:(fun _ _ f -> f ())
      in
      let sps = Array.init clients (fun c -> Span.create ~first_id:((c + 1) * 10_000_000) ()) in
      let traced_samples, traced_t0, traced_wall =
        if not traced then ([], 0.0, 0.0)
        else
          let s, t, w, _ =
            load d ~traces ~seed ~salt:20 ~seconds:window ~min_ops:0
              ~wrap:(fun c n f -> Span.with_span sps.(c) ~op:(((c + 1) * 10_000_000) + n) "serve.exchange" f)
          in
          (s, t, w)
      in
      let rss_mb = Util.vm_hwm_mb (string_of_int d.pid) in
      stop d;
      (* The oracle: in-memory kernels over materialized recordings. *)
      let expected_outcomes =
        Array.mapi (fun i b -> Replay.run_many schemes.(i) ~delays (Suite.record ~scale:(scale i) b)) bs
      in
      let expected = Array.map summary_of_outcomes expected_outcomes in
      let attempted, failed = Util.check samples ~expected in
      let inst_per_s = Util.sliced_rate samples ~t0 ~wall in
      let e2e = Util.end_to_end ~setup_s ~samples ~inst_per_s ~rss_mb in
      let notes =
        [
          Printf.sprintf "%d exchanges from %d closed-loop clients in %.2f s; daemon cpu %.2f s"
            (List.length samples) clients wall cpu;
          Printf.sprintf "traces: %s"
            (String.concat ", "
               (Array.to_list
                  (Array.mapi
                     (fun k t ->
                       let b, s, sc = triple k in
                       Printf.sprintf "%s/%s@%g %d B" b s sc (String.length t))
                     traces)));
        ]
      in
      if not traced then
        { Util.e2e; layers = []; attempted; failed; ops = List.length samples;
          measured_s = wall; spans = []; notes }
      else begin
        let sp = Span.create () in
        Array.iteri
          (fun i b ->
            Span.with_span sp ~op:(-1 - i) "setup" (fun () ->
                let r = Span.with_span sp "suite.record" (fun () -> Suite.record ~scale:(scale i) b) in
                Span.with_span sp "serialize.encode" (fun () -> Stream.write r ignore)))
          bs;
        (* Three in-process replays of every input, after the load. *)
        let occurrence = ref 0 in
        let inproc_failed = ref 0 in
        let first = Array.make n_inputs None in
        let inproc_s = Array.make n_inputs [] in
        for _ = 1 to 3 do
          Array.iteri
            (fun i t ->
              let op = !occurrence in
              incr occurrence;
              let r, dt = Util.time (fun () -> in_process sp ~op t schemes.(i)) in
              inproc_s.(i) <- dt :: inproc_s.(i);
              match r with
              | Ok r ->
                if summary_of_outcomes r.outcomes <> expected.(i) then incr inproc_failed;
                if first.(i) = None then first.(i) <- Some r
              | Error e ->
                Printf.eprintf "in-process replay of %d failed: %s\n%!" i e;
                incr inproc_failed)
            traces
        done;
        let a2, f2 = Util.check traced_samples ~expected in
        let self = Span.self_times (Span.spans sp) in
        let by_op = Util.self_by_op self in
        let total = Util.total by_op in
        let inproc_med = Array.map Util.median inproc_s in
        let overhead =
          List.map
            (fun s -> (s.Util.latency_s -. inproc_med.(s.Util.op)) *. 1000.0)
            traced_samples
        in
        let sum f = Array.fold_left (fun a r -> match r with Some r -> a + f r | None -> a) 0 first in
        let chunks = sum (fun r -> r.chunks) in
        let recorded =
          Array.fold_left
            (fun a os -> a + (List.hd os : Session.outcome).Session.total_instances)
            0 expected_outcomes
        in
        let inproc_inst = 3 * recorded in
        let bytes = 3 * Array.fold_left (fun a t -> a + String.length t) 0 traces in
        let completed, errored, high_water =
          match final_stats d with
          | Some v -> v
          | None ->
            incr inproc_failed;
            (0, 0, 0)
        in
        (* Chunks per exchange of each input, from the daemon's own
           serve.done events; they must match the in-process decode. *)
        let daemon_chunks =
          match d.events with
          | None -> 0
          | Some path ->
            let per = Array.make n_inputs None in
            List.iter
              (fun line ->
                match Events.parse_line line with
                | Ok f when Events.kind f = Some "serve.done" -> (
                  match (Events.find_str f "tenant", Events.find_int f "chunks") with
                  | Some tenant, Some c -> (
                    match Scanf.sscanf tenant "c%d-%d-%d-in%d%!" (fun _ _ _ k -> k) with
                    | k when k >= 0 && k < n_inputs && per.(k) = None -> per.(k) <- Some c
                    | _ -> ()
                    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ())
                  | _ -> ())
                | _ -> ())
              (Util.read_lines path);
            Array.fold_left (fun a c -> a + Option.value c ~default:0) 0 per
        in
        if daemon_chunks <> chunks then incr inproc_failed;
        let exchanges = List.length samples in
        let traced_rate = Util.sliced_rate traced_samples ~t0:traced_t0 ~wall:traced_wall in
        let layers =
          [
            ("serialize.push_decode_s", Util.op_median by_op "serialize.push_decode");
            ("serialize.push_decode_bytes_per_s", Util.rate (float_of_int bytes) (total "serialize.push_decode"));
            ("serialize.paths", float_of_int (sum (fun r -> r.paths)));
            ("serialize.encode_s", total "serialize.encode");
            ("session.create_s", Util.op_median by_op "session.create");
            ("session.push_s", Util.op_median by_op "session.push");
            ("session.push_inst_per_s", Util.rate (float_of_int inproc_inst) (total "session.push"));
            ("session.finish_s", Util.op_median by_op "session.finish");
            ("lint.attach_s", Util.op_median by_op "lint.attach");
            ("lint.check_s", Util.op_median by_op "lint.check");
            ("lint.check_inst_per_s", Util.rate (float_of_int inproc_inst) (total "lint.check"));
            ("lint.diags", float_of_int (sum (fun r -> r.diags)));
            ("serve.cpu_s", cpu /. float_of_int (max 1 exchanges));
            ("serve.busy_ratio", cpu /. wall);
            ("serve.overhead_p50_ms", if overhead = [] then 0.0 else Util.median overhead);
            ("serve.queue_high_water", float_of_int high_water);
            ("serve.chunks", float_of_int daemon_chunks);
            ("serve.completed", float_of_int completed);
            ("serve.errored", float_of_int errored);
            ("suite.record_s", total "suite.record");
            ("suite.record_inst_per_s", Util.rate (float_of_int recorded) (total "suite.record"));
            ("trace.overhead_ratio", traced_rate /. inst_per_s);
          ]
          @ Util.prediction_layers (Array.to_list expected_outcomes)
        in
        { Util.e2e; layers;
          attempted = attempted + a2 + (3 * n_inputs) + 1;
          failed = failed + f2 + !inproc_failed;
          ops = List.length samples + List.length traced_samples;
          measured_s = wall +. traced_wall;
          spans = Span.spans_of (sp :: Array.to_list sps); notes }
      end)
