(* Measurement helpers shared by the three workloads: the clock, order
   statistics, /proc readers, result digests and the result printer. *)

module Session = Hotpath_prediction.Session
module Stats = Hotpath_util.Stats

let now_s () = Int64.to_float (Span.now_ns ()) /. 1e9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let median xs = Stats.percentile (Array.of_list xs) ~p:50.0

(* ---- /proc readers --------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* VmHWM of a process ("self" or a pid), in MB; fails loudly where the
   proc filesystem is missing, since peak_rss_mb must never read 0. *)
let vm_hwm_mb proc =
  let kb =
    List.find_map
      (fun line ->
        try Scanf.sscanf line "VmHWM: %d kB" (fun v -> Some v)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
      (read_lines (Printf.sprintf "/proc/%s/status" proc))
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith ("no VmHWM in /proc/" ^ proc ^ "/status")

(* utime + stime of a process, in seconds.  /proc reports them in
   USER_HZ ticks, which the Linux ABI fixes at 100 per second. *)
let cpu_s pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | line :: _ ->
    (* The command name may contain spaces; fields resume after ')'. *)
    let after = String.rindex line ')' + 2 in
    let rest = String.sub line after (String.length line - after) in
    let fields = Array.of_list (String.split_on_char ' ' rest) in
    (* utime and stime are fields 14 and 15 of stat(5); [rest] starts
       at field 3. *)
    (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0
  | [] -> failwith (Printf.sprintf "no /proc/%d/stat" pid)

(* ---- digests of outputs ---------------------------------------------- *)

(* A canonical digest of a whole outcome: every field, every per-path
   array.  Equal digests mean the two outcomes are equal field for
   field, whatever engine or surface produced them. *)
let outcome_digest (o : Session.outcome) =
  let b = Buffer.create 4096 in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  let arr a =
    int (Array.length a);
    Array.iter int a
  in
  Buffer.add_string b o.Session.scheme_name;
  Buffer.add_char b '\000';
  int o.Session.delay;
  int o.Session.total_instances;
  int (Array.length o.Session.predictions);
  Array.iter
    (fun (p : Session.prediction) ->
      int p.Session.target;
      int p.Session.at_instance)
    o.Session.predictions;
  arr o.Session.predicted_at;
  arr o.Session.freq;
  arr o.Session.captured;
  int o.Session.profiled_instances;
  int o.Session.captured_instances;
  int o.Session.counter_space;
  int o.Session.profiling_ops;
  int o.Session.collection_ops;
  Digest.string (Buffer.contents b)

let outcomes_digest os = Digest.string (String.concat "" (List.map outcome_digest os))

(* Exact prediction counts summed over lanes: (profiling_ops,
   predictions, counter_space). *)
let prediction_counts os =
  List.fold_left
    (fun (po, pr, cs) (o : Session.outcome) ->
      ( po + o.Session.profiling_ops,
        pr + Array.length o.Session.predictions,
        cs + o.Session.counter_space ))
    (0, 0, 0) os

(* The prediction.* layer metrics over the outcomes of every distinct op. *)
let prediction_layers per_op =
  let po, pr, cs = prediction_counts (List.concat per_op) in
  [
    ("prediction.profiling_ops", float_of_int po);
    ("prediction.predictions", float_of_int pr);
    ("prediction.counter_space", float_of_int cs);
  ]

(* ---- run metadata ---------------------------------------------------- *)

let git_revision () =
  let head = read_lines ".git/HEAD" in
  match head with
  | [ line ] when String.length line > 5 && String.sub line 0 5 = "ref: " ->
    let ref_ = String.sub line 5 (String.length line - 5) in
    (match read_lines (Filename.concat ".git" ref_) with
     | [ rev ] -> rev
     | _ ->
       (* A packed ref: "<rev> <ref>" lines in .git/packed-refs. *)
       List.find_map
         (fun l ->
           match String.split_on_char ' ' l with
           | [ rev; r ] when r = ref_ -> Some rev
           | _ -> None)
         (read_lines ".git/packed-refs")
       |> Option.value ~default:"unknown")
  | [ rev ] -> rev
  | _ -> "none (not a git checkout)"

(* Lines of lib/ .ml/.mli sources: tracked next to the numbers as run
   metadata, never as a metric. *)
let lib_lines () =
  let rec walk dir =
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then acc + walk path
        else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
        then acc + List.length (read_lines path)
        else acc)
      0 (Sys.readdir dir)
  in
  if Sys.file_exists "lib" && Sys.is_directory "lib" then walk "lib" else 0

type meta = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  ops : int;
  measured_s : float;
}

let meta_json m =
  Printf.sprintf
    "{\"workload\":%S,\"seed\":%d,\"trace\":%b,\"run_seconds\":%d,\"measured_s\":%.3f,\"ops\":%d,\"nproc\":%d,\"ocaml\":%S,\"git_revision\":%S,\"clock\":\"CLOCK_MONOTONIC via bechamel.monotonic_clock\",\"jobs\":1,\"lib_ml_mli_lines\":%d}"
    m.workload m.seed m.trace m.seconds m.measured_s m.ops
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_revision ()) (lib_lines ())

(* ---- results --------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_json r =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " ms)

(* ---- the measurement loop -------------------------------------------- *)

type sample = {
  op : int;  (** Index of the distinct op that ran. *)
  latency_s : float;
  instances : int;  (** Trace instances the op fully processed. *)
  summary : string;  (** Digest of its output, checked after the run. *)
  error : string option;
  done_at : float;  (** Monotonic seconds when it completed. *)
}

(* Time [f] alone; [summarize] (instances and output digest) runs
   after the clock stops. *)
let run_op op f summarize =
  let t0 = now_s () in
  let outcome = try f () with e -> Error (Printexc.to_string e) in
  let done_at = now_s () in
  let latency_s = done_at -. t0 in
  match outcome with
  | Ok v ->
    let instances, summary = summarize v in
    { op; latency_s; instances; summary; error = None; done_at }
  | Error e -> { op; latency_s; instances = 0; summary = ""; error = Some e; done_at }

(* Whole passes over [n] distinct ops, each pass in a fresh seeded
   order, until [seconds] have elapsed and at least [min_ops] ops ran.
   Whole passes keep every op's share of the samples fixed, so the
   latency percentiles do not move with where a run happened to stop.
   The rate is the median over passes of instances per busy second, so
   a burst of host contention in a minority of passes does not move
   it. *)
type passes = { samples : sample list; measured_s : float; inst_per_s : float }

let passes ~st ~n ~seconds ~min_ops f =
  let t0 = now_s () in
  let acc = ref [] and rates = ref [] and count = ref 0 in
  while now_s () -. t0 < seconds || !count < min_ops do
    let pass = List.map f (Array.to_list (Inputs.permutation st n)) in
    let inst = List.fold_left (fun a s -> a + s.instances) 0 pass in
    let busy = List.fold_left (fun a s -> a +. s.latency_s) 0.0 pass in
    rates := (float_of_int inst /. busy) :: !rates;
    count := !count + n;
    acc := List.rev_append pass !acc
  done;
  { samples = List.rev !acc; measured_s = now_s () -. t0; inst_per_s = median !rates }

let min_ops = 100

(* Set up [times] times and keep the last; the median time is setup_s.
   Each set-up's [fingerprint] must equal the first's, so the repeats
   double as a determinism check.  [discard] releases an earlier one. *)
let repeat_setup ~times ~fingerprint ?(discard = ignore) f =
  let rec go i acc first =
    let v, dt = time f in
    let fp = fingerprint v in
    (match first with
     | Some fp0 when fp0 <> fp -> failwith "set-up is not deterministic"
     | _ -> ());
    if i + 1 = times then (v, median (dt :: acc))
    else begin
      discard v;
      go (i + 1) (dt :: acc) (Some fp)
    end
  in
  go 0 [] None

let setup_repeats = 3

(* Compare every sample with the expected summary of its op; returns
   (attempted, failed) and prints the first mismatches to stderr. *)
let check samples ~expected =
  let failed = ref 0 in
  List.iter
    (fun s ->
      let why =
        match s.error with
        | Some e -> Some e
        | None ->
          if s.summary = expected.(s.op) then None
          else Some "output differs from the reference"
      in
      match why with
      | None -> ()
      | Some e ->
        incr failed;
        if !failed <= 5 then Printf.eprintf "op %d failed: %s\n%!" s.op e)
    samples;
  (List.length samples, !failed)

let percentile_ms samples p =
  Stats.percentile
    (Array.of_list (List.map (fun s -> s.latency_s *. 1000.0) samples))
    ~p

let instances samples = List.fold_left (fun a s -> a + s.instances) 0 samples

(* Instances per second of a concurrent load that ran from [t0] for
   [wall] seconds: the median over consecutive slices of about
   [slice_s] seconds, each crediting the ops that completed in it. *)
let sliced_rate ?(slice_s = 5.0) samples ~t0 ~wall =
  let n = max 1 (int_of_float (wall /. slice_s)) in
  let width = wall /. float_of_int n in
  let per = Array.make n 0 in
  List.iter
    (fun s ->
      let k = min (n - 1) (max 0 (int_of_float ((s.done_at -. t0) /. width))) in
      per.(k) <- per.(k) + s.instances)
    samples;
  median (Array.to_list (Array.map (fun i -> float_of_int i /. width) per))

(* The end-to-end metrics, in BENCHMARK.json order. *)
let end_to_end ~setup_s ~samples ~inst_per_s ~rss_mb =
  [
    metric "setup_s" "s" setup_s;
    metric "inst_per_s" "1/s" inst_per_s;
    metric "op_p50_ms" "ms" (percentile_ms samples 50.0);
    metric "op_p90_ms" "ms" (percentile_ms samples 90.0);
    metric "peak_rss_mb" "MB" rss_mb;
  ]

(* ---- per-layer numbers from spans ------------------------------------- *)

(* Self seconds per (op, span name), summed within the op. *)
let self_by_op self =
  let h = Hashtbl.create 256 in
  List.iter
    (fun ((s : Span.span), ns) ->
      let k = (s.Span.op, s.Span.name) in
      let prev = Option.value (Hashtbl.find_opt h k) ~default:0.0 in
      Hashtbl.replace h k (prev +. Int64.to_float ns /. 1e9))
    self;
  h

(* Median over the ops that entered [name] of the op's self time in it;
   0 where no op did (the layer is bypassed on this workload). *)
let op_median by_op name =
  let xs =
    Hashtbl.fold (fun (o, n) v acc -> if o >= 0 && n = name then v :: acc else acc) by_op []
  in
  if xs = [] then 0.0 else median xs

let total by_op name =
  Hashtbl.fold (fun (_, n) v acc -> if n = name then acc +. v else acc) by_op 0.0

let rate work secs = if secs > 0.0 then work /. secs else 0.0

(* Total seconds inside the top-level "op" spans of the traced ops. *)
let op_span_s self =
  List.fold_left
    (fun a ((s : Span.span), _) ->
      if s.Span.name = "op" then a +. (Int64.to_float (Span.duration_ns s) /. 1e9) else a)
    0.0 self

(* What a workload run hands back to [Main]. *)
type outcome = {
  e2e : metric list;  (** End-to-end metrics (untraced measurement). *)
  layers : (string * float) list;  (** Per-layer values (traced run only). *)
  attempted : int;
  failed : int;
  ops : int;
  measured_s : float;
  spans : Span.span list;  (** The traced run's spans (empty untraced). *)
  notes : string list;  (** Extra report lines (sample counts etc.). *)
}

(* Span op ids of the timed op occurrences (set-up spans use negative ids). *)
let op_ids by_op =
  let seen = Hashtbl.create 64 in
  Hashtbl.iter (fun (o, _) _ -> if o >= 0 then Hashtbl.replace seen o ()) by_op;
  Hashtbl.fold (fun o () acc -> o :: acc) seen []

let self_of by_op o name = Option.value (Hashtbl.find_opt by_op (o, name)) ~default:0.0
