module Recorder = Hotpath_trace.Recorder
module Batch = Hotpath_trace.Batch

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

type events = Session.events

let default_events_window = Session.default_events_window

let events = Session.events

(* Instance-stream reads performed by every replay here, for the
   one-pass guarantee: multiplexing k delays must read the trace once,
   not k times.  Atomic because experiment fan-out replays from several
   domains. *)
let reads = Atomic.make 0

let instance_reads () = Atomic.get reads

let reset_instance_reads () = Atomic.set reads 0

let live = Session.live

module Engine = Session.Engine

(* One engine per scheme behind every surface: [Session.Engine] picks
   the scheme's kernel (or the generic walker for schemes without one),
   and in-memory replay walks the recording's own [instances]/[arrivals]
   arrays through it in one call — the arrays a decoded [Batch.t] holds
   for streamed, mapped and session replay. *)
let run_many ?events:ev scheme ~delays (r : Recorder.t) =
  let ev = live ev in
  match delays with
  | [] -> []
  | _ ->
    let n = Array.length r.Recorder.instances in
    ignore (Atomic.fetch_and_add reads n);
    let e =
      Engine.create ?events:ev scheme ~delays:(Array.of_list delays)
        ~program:r.Recorder.program ~table:r.Recorder.table
    in
    Engine.walk e r.Recorder.instances r.Recorder.arrivals ~off:0 ~len:n;
    Engine.outcomes e

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

  let run_many ?events ~delays r = run_many ?events (module G) ~delays r

  let run ?events ~delay r =
    match run_many ?events ~delays:[ delay ] r with
    | [ o ] -> o
    | _ -> assert false
end

(* ------------------------------------------------------------------ *)
(* Streamed replay                                                     *)
(* ------------------------------------------------------------------ *)

(* One loop for every streamed surface: [next] fills the shared batch
   with the next instance frame ([Ok false] at the end of the stream).
   The decoders have already checked every id against the path table and
   every arrival code, so the batch goes straight to [Engine.walk] — the
   call a [Session] push makes after its gate.  The engine only reads the
   batch during the walk, so [next] refills it for the following frame,
   and the path table grows only between walks. *)
module Stream = Hotpath_trace.Serialize.Stream

let replay_batches ?events:ev scheme ~delays ~program ~table next =
  let ev = live ev in
  match delays with
  | [] -> Ok []
  | _ ->
    let e =
      Engine.create ?events:ev scheme ~delays:(Array.of_list delays) ~program
        ~table
    in
    let batch = Batch.create () in
    let rec consume () =
      match next batch with
      | Error _ as err -> err
      | Ok false -> Ok (Engine.outcomes e)
      | Ok true ->
        let n = Batch.length batch in
        ignore (Atomic.fetch_and_add reads n);
        Engine.walk e batch.Batch.ids batch.Batch.arrs ~off:0 ~len:n;
        consume ()
    in
    consume ()

let run_many_stream ?events scheme ~delays rd =
  replay_batches ?events scheme ~delays ~program:(Stream.program rd)
    ~table:(Stream.table rd) (Stream.next_batch rd)

let run_many_mapped ?events scheme ~delays m =
  replay_batches ?events scheme ~delays ~program:(Stream.Mapped.program m)
    ~table:(Stream.Mapped.table m) (Stream.Mapped.next_batch m)

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
