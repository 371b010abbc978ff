(* The kernel oracle: every built-in scheme's kernel against the generic
   walker.

   In-memory replay, streamed replay and sessions all run the same
   kernel, so comparing those surfaces with each other compares the
   kernel with itself.  These tests force the other engine instead: the
   [wrap] look-alike (eta-expanded [create] and [observe], see
   [Test_kschemes]) is not recognized by the dispatch, so it replays
   through the generic walker and the scheme's own [observe].  Outcomes,
   event bytes, registry snapshots and [on_predict] callbacks must all
   agree. *)

module Recorder = Hotpath_trace.Recorder
module Path_table = Hotpath_trace.Path_table
module Stream = Hotpath_trace.Serialize.Stream
module Replay = Hotpath_prediction.Replay
module Session = Hotpath_prediction.Session
module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Net_k = Hotpath_prediction.Net_k
module Path_profile = Hotpath_prediction.Path_profile
module Path_profile_k = Hotpath_prediction.Path_profile_k
module Suite = Hotpath_workloads.Suite
module Events = Hotpath_util.Events

let builtins : (string * Scheme.packed) list =
  [
    ("net", (module Net));
    ("net-once", (module Net.Net_once));
    ("last-executed-tail", (module Net.Last_executed_tail));
    ("path-profile", (module Path_profile));
    ("net-k2", Net_k.make 2);
    ("net-k3", Net_k.make 3);
    ("path-profile-k2", Path_profile_k.make 2);
    ("path-profile-k3", Path_profile_k.make 3);
  ]

let delays = [ 1; 3; 20; 200 ]

let fixtures () =
  [
    ("indirect_loop", Test_serialize.record_fixture ());
    ("call_loop", Test_serialize.record_calls ());
    ("li", Suite.record ~scale:0.01 (Suite.find_exn "li"));
  ]

let granularities n = [ 1; 7; 997; n + 17 ]

(* The look-alike really does leave the kernels: the dispatch must not
   recognize it, while it does recognize the scheme itself. *)
let test_wrap_is_generic () =
  List.iter
    (fun (name, packed) ->
       Alcotest.(check bool) (name ^ " has a kernel") true
         (Session.Engine.builtin packed <> None);
       Alcotest.(check bool) (name ^ " wrapped runs generic") true
         (Session.Engine.builtin (Test_kschemes.wrap packed) = None))
    builtins

type run = {
  outcomes : Session.outcome list;
  events : string;
  registry : (string * (int * int)) list;
  fired : (int * int * int) list;
}

(* One session over [r], pushed in chunks of [g], with events, registry
   and on_predict all captured. *)
let session_run ~lint ~events packed (r : Recorder.t) g =
  Events.Registry.reset ();
  let buf = Buffer.create 4096 in
  let events =
    if events then Some (Session.events ~window:64 (Events.of_buffer buf))
    else None
  in
  let fired = ref [] in
  let on_predict ~delay ~target ~at_instance =
    fired := (delay, target, at_instance) :: !fired
  in
  let sess =
    match
      Session.create ?events ~lint ~on_predict packed ~delays
        ~program:r.Recorder.program ~table:r.Recorder.table
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "Session.create: %s" e
  in
  let n = Array.length r.Recorder.instances in
  let off = ref 0 in
  while !off < n do
    let len = min g (n - !off) in
    (match
       Session.push_chunk sess
         ~ids:(Array.sub r.Recorder.instances !off len)
         ~arrivals:(Bytes.sub r.Recorder.arrivals !off len)
     with
     | Ok () -> ()
     | Error e -> Alcotest.failf "push_chunk (g=%d): %s" g e);
    off := !off + len
  done;
  let outcomes = Session.finish sess in
  let registry = Events.Registry.snapshot () in
  Events.Registry.reset ();
  { outcomes; events = Buffer.contents buf; registry; fired = List.rev !fired }

let check_runs label (generic : run) (kernel : run) =
  Test_session.check_outcomes label generic.outcomes kernel.outcomes;
  Alcotest.(check string) (label ^ ": event bytes") generic.events kernel.events;
  Alcotest.(check bool) (label ^ ": registry snapshot") true
    (generic.registry = kernel.registry);
  Alcotest.(check (list (triple int int int)))
    (label ^ ": on_predict") generic.fired kernel.fired

let test_sessions_kernel_vs_generic () =
  List.iter
    (fun (fname, r) ->
       let n = Array.length r.Recorder.instances in
       List.iter
         (fun (sname, packed) ->
            let generic_packed = Test_kschemes.wrap packed in
            List.iter
              (fun g ->
                 List.iter
                   (fun (lint, events) ->
                      let label =
                        Printf.sprintf "%s/%s/g=%d/lint=%b/events=%b" fname
                          sname g lint events
                      in
                      check_runs label
                        (session_run ~lint ~events generic_packed r g)
                        (session_run ~lint ~events packed r g))
                   [ (false, false); (true, true); (false, true) ])
              (granularities n))
         builtins)
    (fixtures ())

(* In-memory replay over the recording's own arrays, and the chunked
   lane groups of [?jobs], against the generic walker's session. *)
let test_replay_kernel_vs_generic () =
  List.iter
    (fun (fname, r) ->
       List.iter
         (fun (sname, packed) ->
            let generic = session_run ~lint:false ~events:false
                (Test_kschemes.wrap packed) r 4096
            in
            let label = Printf.sprintf "%s/%s" fname sname in
            Test_session.check_outcomes (label ^ "/run_many") generic.outcomes
              (Replay.run_many packed ~delays r);
            Test_session.check_outcomes (label ^ "/run_many jobs=3")
              generic.outcomes
              (Hotpath_util.Pool.with_domain_limit 3 (fun () ->
                   Replay.run_many ~jobs:3 ~chunk:101 packed ~delays r)))
         builtins)
    (fixtures ())

(* Mapped replay where the path table grows mid-stream: li at scale 0.2,
   cut into 4096-instance frames, declares new paths in several frames
   between instance frames, so the kernels' per-path state must grow
   between pushes. *)
let test_mapped_paths_between_instances () =
  let bytes =
    let buf = Buffer.create (1 lsl 20) in
    ignore
      (Suite.record_stream ~scale:0.2 ~chunk_instances:4096
         (Suite.find_exn "li")
         ~sink:(Buffer.add_string buf));
    Buffer.contents buf
  in
  let late_paths =
    match Stream.open_string bytes with
    | Error e -> Alcotest.failf "open_string: %s" e
    | Ok rd ->
      let rec count ~after_first seen late =
        match Stream.next rd with
        | Error e -> Alcotest.failf "next: %s" e
        | Ok None -> late
        | Ok (Some _) ->
          let size = Path_table.size (Stream.table rd) in
          let late = if after_first && size > seen then late + 1 else late in
          count ~after_first:true size late
      in
      count ~after_first:false 0 0
  in
  Alcotest.(check bool) "paths frames arrive between instance frames" true
    (late_paths >= 2);
  let mapped packed =
    match Stream.Mapped.of_string bytes with
    | Error e -> Alcotest.failf "Mapped.of_string: %s" e
    | Ok m -> (
      match Replay.run_many_mapped packed ~delays m with
      | Error e -> Alcotest.failf "run_many_mapped: %s" e
      | Ok os -> os)
  in
  List.iter
    (fun (sname, packed) ->
       Test_session.check_outcomes ("li-0.2 mapped/" ^ sname)
         (mapped (Test_kschemes.wrap packed))
         (mapped packed))
    builtins

let suites =
  [
    ( "engine.oracle",
      [
        Alcotest.test_case "wrap look-alike leaves the kernels" `Quick
          test_wrap_is_generic;
        Alcotest.test_case "session kernels ≡ generic walker" `Quick
          test_sessions_kernel_vs_generic;
        Alcotest.test_case "in-memory kernels ≡ generic walker" `Quick
          test_replay_kernel_vs_generic;
        Alcotest.test_case "mapped, paths between instance frames" `Quick
          test_mapped_paths_between_instances;
      ] );
  ]
