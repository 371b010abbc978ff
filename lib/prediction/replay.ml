module Recorder = Hotpath_trace.Recorder
module Batch = Hotpath_trace.Batch
module Cfg = Hotpath_cfg.Cfg
module Vec = Hotpath_util.Vec
module Events = Hotpath_util.Events
module Pool = Hotpath_util.Pool

(* The replay vocabulary — prediction/outcome records, events
   configuration — and the per-scheme engine live in [Session]; this
   module drives that engine over recordings, pull-read streams and
   mapped files.  The equations re-export the records so existing field
   accesses compile against either module. *)

type prediction = Session.prediction = { target : int; at_instance : int }

type outcome = Session.outcome = {
  scheme_name : string;
  delay : int;
  total_instances : int;
  predictions : prediction array;
  predicted_at : int array;
  freq : int array;
  captured : int array;
  profiled_instances : int;
  captured_instances : int;
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

type events = Session.events = {
  ev_sink : Events.sink;
  ev_window : int;
  ev_is_hot : (int -> bool) option;
}

let default_events_window = Session.default_events_window

let events = Session.events

(* Logical instance-stream reads performed by [run]/[run_many], for the
   one-pass guarantee: multiplexing k delays must read the trace once,
   not k times.  Atomic because experiment fan-out replays from several
   domains.  The count is per logical traversal and independent of
   [?jobs]: a chunk-sharded run still consumes the stream once. *)
let reads = Atomic.make 0

let instance_reads () = Atomic.get reads

let reset_instance_reads () = Atomic.set reads 0

let live = Session.live

module Engine = Session.Engine

(* ------------------------------------------------------------------ *)
(* Lane groups                                                         *)
(* ------------------------------------------------------------------ *)

(* Contiguous lane slices, sizes differing by at most one. *)
let shard_slices lanes shards =
  let k = Array.length lanes in
  let base = k / shards and extra = k mod shards in
  let off = ref 0 in
  Array.init shards (fun s ->
      let len = base + if s < extra then 1 else 0 in
      let slice = Array.sub lanes !off len in
      off := !off + len;
      slice)

(* Every group's sampler emits, per window round, one line per lane in
   lane order, and all lanes across all groups hit the same window
   boundaries (same trace length, same window).  Groups hold contiguous
   lane slices, so the serial stream — round-major, lane-minor over the
   global lane order — is recovered by concatenating each round's
   per-group lines in group order. *)
let merge_event_lines sink slices bufs =
  let rounds =
    let k0 = Array.length slices.(0) in
    if k0 = 0 then 0 else Vec.length bufs.(0) / k0
  in
  Array.iteri
    (fun s buf ->
       if Vec.length buf <> rounds * Array.length slices.(s) then
         invalid_arg "Replay: parallel event streams out of step")
    bufs;
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun s buf ->
         let k = Array.length slices.(s) in
         for j = 0 to k - 1 do
           Events.raw sink (Vec.get buf ((round * k) + j))
         done)
      bufs
  done

(* The lanes split into contiguous groups, one per worker (the [jobs]
   ask clamped to the machine's domain budget and the lane count), each
   holding its own engine or session made by [make ev slice].  A single
   group samples straight into the caller's sink; several sample into
   per-group line buffers that [fan_finish] merges back into the exact
   serial byte stream.  Lanes never interact, so results are
   independent of the grouping. *)
type 'g fan = {
  groups : 'g array;
  slices : int array array;
  bufs : string Vec.t array;
}

let fan_out ~ev ~jobs lanes make =
  let workers = min (Pool.effective_workers ~jobs) (Array.length lanes) in
  let slices = if workers <= 1 then [| lanes |] else shard_slices lanes workers in
  let bufs = Array.map (fun _ -> Vec.create ()) slices in
  let groups =
    Array.mapi
      (fun s slice ->
         let ev_s =
           if Array.length slices = 1 then ev
           else
             Option.map
               (fun e -> { e with ev_sink = Events.of_fn (Vec.push bufs.(s)) })
               ev
         in
         make ev_s slice)
      slices
  in
  { groups; slices; bufs }

(* Run [f] on every group: inline for one, over pool workers otherwise.
   Groups only read shared inputs during the fan-out. *)
let fan_iter fan f =
  match fan.groups with
  | [| g |] -> f g
  | gs -> ignore (Pool.map_array ~jobs:(Array.length gs) f gs)

let fan_finish ~ev fan outcomes =
  let os = List.concat_map outcomes (Array.to_list fan.groups) in
  if Array.length fan.groups > 1 then
    Option.iter (fun e -> merge_event_lines e.ev_sink fan.slices fan.bufs) ev;
  os

(* ------------------------------------------------------------------ *)
(* Stream-sharded fast engines                                         *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Stream-sharded fast engines                                         *)
(* ------------------------------------------------------------------ *)

(* [run_many ~jobs] used to shard the *delay lanes*: each of
   [min jobs k] domains re-walked the entire trace for a contiguous lane
   slice, so jobs > 1 multiplied total work by the shard count and wall
   time *grew* with jobs whenever domains outnumbered cores (BENCH_replay.json recorded
   the net kernel falling from 43.3M instances/s at jobs=1 to 31.7M at
   jobs=4).  The engines below shard the *instance stream* instead:

   - Phase A walks the stream exactly once, compressing it — for NET,
     into the recording-level loop index ([Recorder.loop_index]: the
     loop-head event stream as trace index + occurrence count of the
     event's own path, grouped into maximal same-path runs, built once
     per recording and cached); for path-profile, into per-chunk
     occurrence-threshold trigger buffers.  Phase A is the only
     consumer of the raw trace and the only writer of [freq] (for NET,
     [freq] is a blit of the index's final counts).
   - Phase C replays every delay lane against the compressed buffers:
     O(1) per run per lane for NET (a run either skips — its path is
     already predicted — or advances one head counter by the run length
     with at most one trip inside), O(1) per trigger for path-profile.
     Lanes are independent, so phase C fans contiguous lane groups over
     pool workers, each group replaying the same cache-resident buffers.

   The chunk-seam carry protocol is what makes chunking invisible: head
   counters, predicted-at marks and occurrence bases live in per-lane
   arrays that persist across chunks, and a run split by a chunk
   boundary is simply two shorter runs advancing the same counter — the
   automaton never relies on run maximality (property-tested
   bit-identical to serial for adversarial chunk sizes, 1 included).

   Captured flow needs no per-instance work at all: at an accepted
   prediction of [target] at instance [i] the engine stores
   occ(target, <= i) as the capture base, and at the end
   captured(target) = freq(target) - base.  This closed form is exact
   because a predicted path's later instances are captured by
   definition, and for these kernels the predicted path is the tripping
   path itself, whose occurrence count phase A already carries.

   Per-chunk buffers are reused and sized to the chunk, so phase C reads
   cache-resident data where the lane-sharded loops streamed the whole
   trace from memory once per shard — which is why jobs > 1 beats the
   fused serial kernel even on a single core: it does strictly less
   work per lane, not merely the same work elsewhere. *)
module Fast = struct
  let lane_groups k workers =
    shard_slices (Array.init k Fun.id) (max 1 (min workers k))

  (* Fan phase C over lane groups.  The per-chunk pool teardown costs a
     domain spawn per worker per chunk — noise at the default chunk size
     — and the single-group case (1-core machines included) runs inline
     with no domain machinery at all. *)
  let run_groups groups process =
    match Array.length groups with
    | 1 -> process groups.(0)
    | ng -> ignore (Pool.map_array ~jobs:ng process groups)

  let net ~once:v_once ~scheme ~lanes ~workers ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let n_blocks = Array.length r.Recorder.program.Cfg.blocks in
    let d = Recorder.descriptors r in
    let heads = d.Recorder.d_heads and blocks = d.Recorder.d_blocks in
    let n = Array.length r.Recorder.instances in
    (* Phase A is the recording-level loop index: the loop-head event
       stream grouped into maximal same-path runs, plus final
       frequencies — built once per recording ([Recorder.loop_index]
       caches it) and shared by every lane group, every delay set, and
       every subsequent replay of the same recording.  A maximal run is
       just the chunk-truncated runs of the old per-chunk phase A
       merged: splitting a run anywhere yields two shorter runs
       advancing the same carried counter, so phase C is bit-identical
       on either form and the chunk loop disappears entirely. *)
    let li = Recorder.loop_index r in
    let ev_idx = li.Recorder.li_idx in
    let ev_occ = li.Recorder.li_occ in
    let run_pid = li.Recorder.li_run_pid in
    let run_off = li.Recorder.li_run_off in
    let run_len = li.Recorder.li_run_len in
    Array.blit li.Recorder.li_freq 0 freq 0 n_paths;
    let nr = Array.length run_pid in
    (* Per-lane state. *)
    let pa = Array.init k (fun _ -> Array.make n_paths max_int) in
    let cap_base = Array.init k (fun _ -> Array.make n_paths 0) in
    let counts = Array.init k (fun _ -> Array.make n_blocks (-1)) in
    let retired =
      Array.init k (fun _ -> if v_once then Array.make n_blocks false else [||])
    in
    let seen = Array.make k 0 in
    let ops = Array.make k 0 in
    let coll = Array.make k 0 in
    let preds = Array.init k (fun _ -> Vec.create ()) in
    let groups = lane_groups k workers in
    (* One streaming pass over the run arrays, lanes inner.  Run-outer
       beats lane-outer here: the run arrays are tens of megabytes on a
       full-scale trace and stream through exactly once this way (each
       lane pass of the lane-outer shape would re-stream them, and
       memory bandwidth — not the per-run arithmetic — is the binding
       constraint), while the per-lane counter state is small enough to
       stay cache-resident across the inner loop. *)
    let process_group g =
      (* Hot closure captures into locals (see the kernels in [Session]). *)
      let run_pid = Sys.opaque_identity run_pid
      and run_off = Sys.opaque_identity run_off
      and run_len = Sys.opaque_identity run_len
      and ev_idx = Sys.opaque_identity ev_idx
      and ev_occ = Sys.opaque_identity ev_occ
      and heads = Sys.opaque_identity heads
      and blocks = Sys.opaque_identity blocks
      and lanes = Sys.opaque_identity lanes
      and pa = Sys.opaque_identity pa
      and cap_base = Sys.opaque_identity cap_base
      and counts = Sys.opaque_identity counts
      and retired = Sys.opaque_identity retired
      and seen = Sys.opaque_identity seen
      and ops = Sys.opaque_identity ops
      and coll = Sys.opaque_identity coll
      and preds = Sys.opaque_identity preds
      and v_once = Sys.opaque_identity v_once in
      let gk = Array.length g in
      for ri = 0 to nr - 1 do
        let pid = Array.unsafe_get run_pid ri in
        let off = Array.unsafe_get run_off ri in
        let len = Array.unsafe_get run_len ri in
        let h = Array.unsafe_get heads pid in
        for j = 0 to gk - 1 do
          let l = Array.unsafe_get g j in
          let pal = Array.unsafe_get pa l in
          (* Predicted path => the whole run is captured flow: skip. *)
          if Array.unsafe_get pal pid = max_int then
            if not (v_once && Array.unsafe_get (Array.unsafe_get retired l) h)
            then begin
              let cl = Array.unsafe_get counts l in
              let c0 = Array.unsafe_get cl h in
              let c0 =
                if c0 < 0 then begin
                  Array.unsafe_set seen l (Array.unsafe_get seen l + 1);
                  0
                end
                else c0
              in
              let delay = Array.unsafe_get lanes l in
              if c0 + len < delay then begin
                Array.unsafe_set cl h (c0 + len);
                Array.unsafe_set ops l (Array.unsafe_get ops l + len)
              end
              else begin
                (* The counter trips at the run's [delay - c0]-th event;
                   everything after that event is captured flow of the
                   now-predicted path, so the run finishes in O(1). *)
                let e = delay - c0 in
                Array.unsafe_set ops l (Array.unsafe_get ops l + e);
                Array.unsafe_set cl h 0;
                if v_once then
                  Array.unsafe_set (Array.unsafe_get retired l) h true;
                let at = Array.unsafe_get ev_idx (off + e - 1) in
                Array.unsafe_set pal pid at;
                Array.unsafe_set (Array.unsafe_get cap_base l) pid
                  (Array.unsafe_get ev_occ (off + e - 1));
                Array.unsafe_set coll l
                  (Array.unsafe_get coll l + Array.unsafe_get blocks pid);
                Vec.push
                  (Array.unsafe_get preds l)
                  { target = pid; at_instance = at }
              end
            end
        done
      done
    in
    process_group |> run_groups groups;
    List.init k (fun l ->
        let captured = Array.make n_paths 0 in
        let pal = pa.(l) and cb = cap_base.(l) in
        let total = ref 0 in
        for pid = 0 to n_paths - 1 do
          if Array.unsafe_get pal pid <> max_int then begin
            let c = Array.unsafe_get freq pid - Array.unsafe_get cb pid in
            Array.unsafe_set captured pid c;
            total := !total + c
          end
        done;
        {
          scheme_name = scheme;
          delay = lanes.(l);
          total_instances = n;
          predictions = Vec.to_array preds.(l);
          predicted_at = pal;
          freq = (if l = 0 then freq else Array.copy freq);
          captured;
          profiled_instances = n - !total;
          captured_instances = !total;
          counter_space = seen.(l);
          profiling_ops = ops.(l);
          collection_ops = coll.(l);
        })

  (* Path-profile predicts a path at exactly its [delay]-th profiled
     occurrence (its first [min freq delay] occurrences are profiled,
     the rest captured), so phase A only records threshold crossings —
     (path, occurrence, index) triggers — and everything else is closed
     form over the final [freq]. *)
  let path_profile ~scheme ~lanes ~chunk ~workers ~freq (r : Recorder.t) =
    let k = Array.length lanes in
    let n_paths = Recorder.num_paths r in
    let d = Recorder.descriptors r in
    let branches = d.Recorder.d_branches in
    let instances = r.Recorder.instances in
    let n = Array.length instances in
    let csz = max 1 (min chunk n) in
    (* Occurrence counts never exceed n, so delays beyond n can never
       trigger and need no slot in the membership table. *)
    let cap = min (Array.fold_left max 1 lanes) n in
    let is_delay = Array.make (cap + 1) false in
    Array.iter (fun dl -> if dl >= 1 && dl <= cap then is_delay.(dl) <- true) lanes;
    let tr_pid = Array.make csz 0 in
    let tr_occ = Array.make csz 0 in
    let tr_idx = Array.make csz 0 in
    let pa = Array.init k (fun _ -> Array.make n_paths max_int) in
    let preds = Array.init k (fun _ -> Vec.create ()) in
    let groups = lane_groups k workers in
    let n_triggers = ref 0 in
    let process_group g =
      (* Hot closure captures into locals (see the kernels in [Session]). *)
      let tr_pid = Sys.opaque_identity tr_pid
      and tr_occ = Sys.opaque_identity tr_occ
      and tr_idx = Sys.opaque_identity tr_idx in
      let nt = !n_triggers in
      Array.iter
        (fun l ->
           let delay = lanes.(l) in
           let pal = pa.(l) and pr = preds.(l) in
           for t = 0 to nt - 1 do
             if Array.unsafe_get tr_occ t = delay then begin
               let pid = Array.unsafe_get tr_pid t in
               let at = Array.unsafe_get tr_idx t in
               Array.unsafe_set pal pid at;
               Vec.push pr { target = pid; at_instance = at }
             end
           done)
        g
    in
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + csz) in
      let nt = ref 0 in
      for i = !lo to hi - 1 do
        let pid = Array.unsafe_get instances i in
        let f = Array.unsafe_get freq pid + 1 in
        Array.unsafe_set freq pid f;
        if f <= cap && Array.unsafe_get is_delay f then begin
          let t = !nt in
          Array.unsafe_set tr_pid t pid;
          Array.unsafe_set tr_occ t f;
          Array.unsafe_set tr_idx t i;
          nt := t + 1
        end
      done;
      n_triggers := !nt;
      process_group |> run_groups groups;
      lo := hi
    done;
    let seen = ref 0 in
    for pid = 0 to n_paths - 1 do
      if freq.(pid) > 0 then incr seen
    done;
    let seen = !seen in
    List.init k (fun l ->
        let delay = lanes.(l) in
        let captured = Array.make n_paths 0 in
        let pal = pa.(l) in
        let total = ref 0 and ops = ref 0 in
        for pid = 0 to n_paths - 1 do
          let f = Array.unsafe_get freq pid in
          let profiled_occ = if f < delay then f else delay in
          ops := !ops + (profiled_occ * (Array.unsafe_get branches pid + 1));
          if Array.unsafe_get pal pid <> max_int then begin
            let c = f - delay in
            Array.unsafe_set captured pid c;
            total := !total + c
          end
        done;
        {
          scheme_name = scheme;
          delay;
          total_instances = n;
          predictions = Vec.to_array preds.(l);
          predicted_at = pal;
          freq = (if l = 0 then freq else Array.copy freq);
          captured;
          profiled_instances = n - !total;
          captured_instances = !total;
          counter_space = seen;
          profiling_ops = !ops;
          collection_ops = 0;
        })
end

(* Chunks large enough to amortize per-chunk work, small enough that the
   phase-A buffers (a few machine words per instance) stay L2-resident
   while every lane group replays them. *)
let default_chunk = 65_536

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* One engine per scheme behind every surface: [Session.Engine] picks
   the scheme's kernel (or the generic walker for schemes without one),
   and in-memory replay walks the recording's own [instances]/[arrivals]
   arrays through it — the arrays a decoded [Batch.t] holds for
   streamed, mapped and session replay.  [jobs > 1] only schedules: NET
   (re-arming and once) and path-profile switch to the compressed
   [Fast] engines when events are off; every other case splits the
   lanes into groups that each walk the recording in chunks of [chunk]
   instances, which is bit-identical to one serial walk. *)
let run_many ?events:ev ?(jobs = 1) ?(chunk = default_chunk)
    (module S : Scheme.S) ~delays (r : Recorder.t) =
  if jobs < 1 then invalid_arg "Replay.run_many: jobs must be >= 1";
  if chunk < 1 then invalid_arg "Replay.run_many: chunk must be >= 1";
  let ev = live ev in
  match Array.of_list delays with
  | [||] -> []
  | lanes -> (
    let n = Array.length r.Recorder.instances in
    let program = r.Recorder.program and table = r.Recorder.table in
    (* One logical traversal of the stream regardless of [jobs]. *)
    ignore (Atomic.fetch_and_add reads n);
    let fast =
      match Engine.builtin (module S) with
      | Some (Engine.Net_rearm | Engine.Net_once | Engine.Path_profile) as b
        when jobs > 1 && ev = None ->
        b
      | _ -> None
    in
    match fast with
    | Some b -> (
      Array.iter
        (fun d -> if d < 1 then ignore (S.create ~delay:d ~program))
        lanes;
      let workers = min (Pool.effective_workers ~jobs) (Array.length lanes) in
      let freq = Array.make (Recorder.num_paths r) 0 in
      match b with
      | Engine.Path_profile ->
        Fast.path_profile ~scheme:S.name ~lanes ~chunk ~workers ~freq r
      | _ ->
        Fast.net ~once:(b = Engine.Net_once) ~scheme:S.name ~lanes ~workers
          ~freq r)
    | None ->
      let step = if jobs = 1 then max 1 n else chunk in
      let fan =
        fan_out ~ev ~jobs lanes (fun ev slice ->
            Engine.create ?events:ev (module S) ~delays:slice ~program ~table)
      in
      fan_iter fan (fun e ->
          let lo = ref 0 in
          while !lo < n do
            let len = min step (n - !lo) in
            Engine.walk e r.Recorder.instances r.Recorder.arrivals ~off:!lo ~len;
            lo := !lo + len
          done);
      fan_finish ~ev fan Engine.outcomes)

let run ?events scheme ~delay r =
  match run_many ?events scheme ~delays:[ delay ] r with
  | [ o ] -> o
  | _ -> assert false

(* The generic walker for a statically known scheme: fresh [create] and
   [observe] closures are never recognized as a built-in, so [Make (Net)]
   replays NET through [Net.observe] itself — the reference the kernels
   are tested against. *)
module Make (S : Scheme.S) = struct
  module G = struct
    include S

    let create ~delay ~program = S.create ~delay ~program

    let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
      S.observe t ~head ~arrival ~path_id ~n_branches ~n_blocks
  end

  let run_many ?events ?jobs ?chunk ~delays r =
    run_many ?events ?jobs ?chunk (module G) ~delays r

  let run ?events ~delay r =
    match run_many ?events ~delays:[ delay ] r with
    | [ o ] -> o
    | _ -> assert false
end

(* ------------------------------------------------------------------ *)
(* Streamed replay                                                     *)
(* ------------------------------------------------------------------ *)

(* One loop for every streamed surface: each lane group is an engine,
   and [next] fills the shared batch with the next instance frame
   ([Ok false] at the end of the stream).  The decoders have already
   checked every id against the path table and every arrival code, so
   the batch goes straight to [Engine.walk] — the call a [Session] push
   makes after its gate.  Every group walks the same batch; engines only
   read it during the walk, so [next] refills it after the fan-out
   joins, and the path table grows only between fan-outs.  Results and
   the merged event stream are byte-identical at every job count. *)
module Stream = Hotpath_trace.Serialize.Stream

let replay_batches ~what ?events:ev ?(jobs = 1) scheme ~delays ~program ~table
    next =
  if jobs < 1 then invalid_arg (what ^ ": jobs must be >= 1");
  let ev = live ev in
  match Array.of_list delays with
  | [||] -> Ok []
  | lanes -> (
    let fan =
      fan_out ~ev ~jobs lanes (fun ev slice ->
          Engine.create ?events:ev scheme ~delays:slice ~program ~table)
    in
    let batch = Batch.create () in
    let rec consume () =
      match next batch with
      | Error _ as e -> e
      | Ok false -> Ok ()
      | Ok true ->
        let n = Batch.length batch in
        (* One logical read of the frame, independent of the fan-out. *)
        ignore (Atomic.fetch_and_add reads n);
        fan_iter fan (fun e ->
            Engine.walk e batch.Batch.ids batch.Batch.arrs ~off:0 ~len:n);
        consume ()
    in
    match consume () with
    | Error _ as e -> e
    | Ok () -> Ok (fan_finish ~ev fan Engine.outcomes))

let run_many_stream ?events ?jobs scheme ~delays rd =
  replay_batches ~what:"Replay.run_many_stream" ?events ?jobs scheme ~delays
    ~program:(Stream.program rd) ~table:(Stream.table rd) (fun batch ->
      match Stream.next rd with
      | Error e -> Error e
      | Ok None -> Ok false
      | Ok (Some c) ->
        Batch.fill_of_chunk batch ~ids:c.Stream.ids ~arrivals:c.Stream.arrivals;
        Ok true)

(* Over the zero-copy reader, frames decode straight into the batch. *)
let run_many_mapped ?events ?jobs scheme ~delays m =
  replay_batches ~what:"Replay.run_many_mapped" ?events ?jobs scheme ~delays
    ~program:(Stream.Mapped.program m) ~table:(Stream.Mapped.table m)
    (Stream.Mapped.next_batch m)

let single = function
  | Error _ as e -> e
  | Ok [ o ] -> Ok o
  | Ok _ -> assert false

let run_stream ?events scheme ~delay rd =
  single (run_many_stream ?events scheme ~delays:[ delay ] rd)

let run_mapped ?events scheme ~delay m =
  single (run_many_mapped ?events scheme ~delays:[ delay ] m)

let predicted_paths o =
  Array.to_list o.predictions
  |> List.map (fun p -> p.target)
  |> List.sort Int.compare

let pp_summary ppf o =
  Format.fprintf ppf
    "@[<h>%s(delay=%d): instances=%d predicted=%d profiled=%d captured=%d \
     counters=%d ops=%d collect=%d@]"
    o.scheme_name o.delay o.total_instances
    (Array.length o.predictions)
    o.profiled_instances o.captured_instances o.counter_space o.profiling_ops
    o.collection_ops
