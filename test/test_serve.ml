(* The serve daemon under fire: protocol round trips, fault injection
   (torn frames, CRC corruption, mid-frame disconnects, handshake
   garbage), tenant isolation under interleaving, and a multi-domain
   soak.  The invariants: a failure is confined to its own connection
   and surfaces as exactly one typed [serve.error]; every healthy tenant
   gets results bit-identical to a local replay; the daemon never
   crashes and always shuts down cleanly. *)

module Recorder = Hotpath_trace.Recorder
module Stream = Hotpath_trace.Serialize.Stream
module Replay = Hotpath_prediction.Replay
module Net = Hotpath_prediction.Net
module Serve = Hotpath_serve.Serve
module Server = Hotpath_serve.Serve.Server
module Client = Hotpath_serve.Serve.Client
module Events = Hotpath_util.Events
module Pool = Hotpath_util.Pool

let fixture () = Test_serialize.record_fixture ()

let fixture_stream ?(chunk_instances = 256) () =
  let r = fixture () in
  (r, Stream.to_string ~chunk_instances r)

(* Start a daemon, run [f] against it, stop, join, and return
   [(f's result, lifetime stats, daemon event lines)]. *)
let with_server ?(queue_capacity = 4) ?(drain_burst = 2) f =
  let socket_path = Filename.temp_file "hotpath_serve_test" ".sock" in
  let ev_buf = Buffer.create 4096 in
  match
    Server.create
      ~events:(Events.of_buffer ev_buf)
      ~queue_capacity ~drain_burst ~socket_path ()
  with
  | Error e -> Alcotest.failf "Server.create: %s" e
  | Ok server ->
    let d = Domain.spawn (fun () -> Server.run server) in
    let result =
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          Domain.join d)
        (fun () ->
          Alcotest.(check bool) "server ready" true
            (Client.wait_ready socket_path);
          f socket_path)
    in
    Alcotest.(check bool) "socket file removed on shutdown" false
      (Sys.file_exists socket_path);
    let lines =
      String.split_on_char '\n' (Buffer.contents ev_buf)
      |> List.filter (fun l -> l <> "")
      |> List.map (fun l ->
             match Events.parse_line l with
             | Ok fields -> fields
             | Error e -> Alcotest.failf "unparseable daemon event %S: %s" l e)
    in
    (result, Server.stats server, lines)

let reply_kinds reply = List.filter_map Events.kind reply

let reply_ok reply = List.exists (( = ) "serve.ok") (reply_kinds reply)

let reply_error_code reply =
  List.find_map
    (fun fields ->
      if Events.kind fields = Some "serve.error" then
        Events.find_str fields "code"
      else None)
    reply

let send_exn ~socket_path ~tenant ?(scheme = "net") ?(delays = [ 1; 7; 50 ])
    ?chunk_bytes trace =
  match Client.send ~socket_path ~tenant ~scheme ~delays ?chunk_bytes trace with
  | Ok reply -> reply
  | Error e -> Alcotest.failf "Client.send (%s): %s" tenant e

(* The serve.result lines a local replay predicts, keyed by delay. *)
let expected_results packed ~delays r =
  Replay.run_many packed ~delays r
  |> List.map (fun (o : Replay.outcome) ->
         ( o.Replay.delay,
           ( o.Replay.total_instances,
             Array.length o.Replay.predictions,
             o.Replay.profiled_instances,
             o.Replay.counter_space,
             Serve.outcome_hash o ) ))

let check_results label reply expected =
  let results =
    List.filter (fun f -> Events.kind f = Some "serve.result") reply
  in
  Alcotest.(check int) (label ^ ": result lines") (List.length expected)
    (List.length results);
  List.iter2
    (fun fields (delay, (instances, predictions, profiled, counters, hash)) ->
      let get k =
        match Events.find_int fields k with
        | Some v -> v
        | None -> Alcotest.failf "%s: reply missing %s" label k
      in
      Alcotest.(check int) (label ^ ": delay") delay (get "delay");
      Alcotest.(check int) (label ^ ": instances") instances (get "instances");
      Alcotest.(check int)
        (label ^ ": predictions")
        predictions (get "predictions");
      Alcotest.(check int) (label ^ ": profiled") profiled (get "profiled");
      Alcotest.(check int)
        (label ^ ": counter_space")
        counters (get "counter_space");
      Alcotest.(check int) (label ^ ": pred_hash") hash (get "pred_hash"))
    results expected

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let r, trace = fixture_stream () in
  let delays = [ 1; 7; 50 ] in
  let expected = expected_results (module Net) ~delays r in
  let (), stats, events =
    with_server (fun socket_path ->
        let reply = send_exn ~socket_path ~tenant:"t0" ~delays trace in
        Alcotest.(check bool) "serve.ok" true (reply_ok reply);
        check_results "roundtrip" reply expected)
  in
  Alcotest.(check int) "completed" 1 stats.Server.completed;
  Alcotest.(check int) "errored" 0 stats.Server.errored;
  Alcotest.(check int) "instances" (Array.length r.Recorder.instances)
    stats.Server.instances;
  let kinds = List.filter_map Events.kind events in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("daemon emitted " ^ k) true (List.mem k kinds))
    [ "serve.accept"; "serve.attach"; "serve.done"; "serve.stats" ]

let test_roundtrip_write_granularities () =
  (* Byte-level torn frames: the handshake and every HOTPATH3 frame
     split across arbitrary socket writes must reassemble. *)
  let r, trace = fixture_stream ~chunk_instances:64 () in
  let delays = [ 7 ] in
  let expected = expected_results (module Net) ~delays r in
  let (), stats, _ =
    with_server (fun socket_path ->
        List.iteri
          (fun i chunk_bytes ->
            let tenant = Printf.sprintf "granularity-%d" i in
            let reply =
              send_exn ~socket_path ~tenant ~delays ~chunk_bytes trace
            in
            Alcotest.(check bool)
              (Printf.sprintf "serve.ok at %d-byte writes" chunk_bytes)
              true (reply_ok reply);
            check_results
              (Printf.sprintf "writes=%d" chunk_bytes)
              reply expected)
          [ 1; 7; 4096 ])
  in
  Alcotest.(check int) "completed" 3 stats.Server.completed;
  Alcotest.(check int) "errored" 0 stats.Server.errored

let test_all_schemes_served () =
  let r, trace = fixture_stream () in
  let (), stats, _ =
    with_server (fun socket_path ->
        List.iter
          (fun (scheme, packed) ->
            let reply =
              send_exn ~socket_path ~tenant:("s-" ^ scheme) ~scheme
                ~delays:[ 7 ] trace
            in
            Alcotest.(check bool) (scheme ^ " ok") true (reply_ok reply);
            check_results scheme reply
              (expected_results packed ~delays:[ 7 ] r))
          [
            ("net", (module Net : Hotpath_prediction.Scheme.S));
            ("net-once", (module Net.Net_once));
            ("let", (module Net.Last_executed_tail));
            ("path-profile", (module Hotpath_prediction.Path_profile));
            (* k-iteration families: the served roundtrip must equal the
               local replay, k = 1 reductions included. *)
            ("net-k1", Hotpath_prediction.Net_k.make 1);
            ("net-k2", Hotpath_prediction.Net_k.make 2);
            ("path-profile-k1", Hotpath_prediction.Path_profile_k.make 1);
            ("path-profile-k2", Hotpath_prediction.Path_profile_k.make 2);
          ])
  in
  Alcotest.(check int) "errored" 0 stats.Server.errored

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* Raw exchange: write [payload] verbatim, half-close, read the reply
   to EOF and parse its lines. *)
let raw_exchange ~socket_path payload =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let off = ref 0 in
      let n = String.length payload in
      while !off < n do
        off := !off + Unix.write_substring fd payload !off (n - !off)
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Buffer.create 256 in
      let b = Bytes.create 1024 in
      let rec go () =
        match Unix.read fd b 0 1024 with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf b 0 n;
          go ()
        | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> ()
      in
      go ();
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.filter (fun l -> l <> "")
      |> List.map (fun l ->
             match Events.parse_line l with
             | Ok fields -> fields
             | Error e -> Alcotest.failf "unparseable reply %S: %s" l e))

let test_handshake_errors () =
  let _, trace = fixture_stream () in
  let (), stats, _ =
    with_server (fun socket_path ->
        let expect_code label code reply =
          Alcotest.(check bool) (label ^ " refused") false (reply_ok reply);
          Alcotest.(check (option string)) (label ^ " code") (Some code)
            (reply_error_code reply)
        in
        expect_code "unknown scheme" "handshake"
          (send_exn ~socket_path ~tenant:"hs1" ~scheme:"nope" trace);
        expect_code "zero delay" "handshake"
          (send_exn ~socket_path ~tenant:"hs2" ~delays:[ 0 ] trace);
        expect_code "garbage line" "handshake"
          (raw_exchange ~socket_path "GET / HTTP/1.0\n\n");
        expect_code "handshake cut by EOF" "handshake"
          (raw_exchange ~socket_path "HPSERVE1 partial");
        (* Malformed k-scheme spellings are typed handshake errors, not
           crashes and not silent fallbacks to the base scheme. *)
        expect_code "k = 0" "handshake"
          (send_exn ~socket_path ~tenant:"hs3" ~scheme:"path-profile-k0" trace);
        expect_code "non-decimal k" "handshake"
          (send_exn ~socket_path ~tenant:"hs4" ~scheme:"net-kfoo" trace);
        expect_code "missing k" "handshake"
          (send_exn ~socket_path ~tenant:"hs5" ~scheme:"path-profile-k" trace))
  in
  Alcotest.(check int) "seven typed errors" 7 stats.Server.errored;
  Alcotest.(check int) "no completions" 0 stats.Server.completed

let test_fault_isolation () =
  (* One bad client per failure mode, interleaved with a good tenant —
     the good tenant's results must be unaffected every time. *)
  let r, trace = fixture_stream ~chunk_instances:128 () in
  let delays = [ 7; 50 ] in
  let expected = expected_results (module Net) ~delays r in
  let n = String.length trace in
  let corrupt =
    let b = Bytes.of_string trace in
    Bytes.set b (n / 2) (Char.chr (Char.code (Bytes.get b (n / 2)) lxor 0x40));
    Bytes.to_string b
  in
  let torn = String.sub trace 0 (n - 7) in
  let lint_bad =
    (* Valid framing and CRCs, malformed trace semantics: a fresh
       recording with one arrival rewritten to "entry" mid-trace, then
       serialized. *)
    let r' = Test_serialize.record_fixture () in
    let arr = r'.Recorder.arrivals in
    let idx = ref (Bytes.length arr / 2) in
    while Bytes.get arr !idx = '\001' do
      incr idx
    done;
    Bytes.set arr !idx '\001';
    let diags =
      Hotpath_trace.Lint.check_parts ~program:r'.Recorder.program
        ~table:r'.Recorder.table ~instances:r'.Recorder.instances
        ~arrivals:arr
    in
    Alcotest.(check bool) "lint fixture is genuinely bad" true
      (Hotpath_analysis.Diag.has_errors diags);
    Stream.to_string ~chunk_instances:128 r'
  in
  let faults =
    [
      ("crc-corrupt", corrupt, "decode");
      ("torn-stream", torn, "disconnect");
      ("lint-bad", lint_bad, "lint");
    ]
  in
  let (), stats, _ =
    with_server (fun socket_path ->
        List.iter
          (fun (name, bad_trace, code) ->
            let results =
              Pool.with_domain_limit 2 (fun () ->
                  Pool.map ~jobs:2
                    (fun role ->
                      if role = 0 then
                        send_exn ~socket_path ~tenant:("bad-" ^ name) ~delays
                          bad_trace
                      else
                        send_exn ~socket_path ~tenant:("good-" ^ name) ~delays
                          trace)
                    [ 0; 1 ])
            in
            (match results with
            | [ bad; good ] ->
              Alcotest.(check bool) (name ^ ": bad refused") false
                (reply_ok bad);
              Alcotest.(check (option string))
                (name ^ ": typed code") (Some code) (reply_error_code bad);
              Alcotest.(check bool) (name ^ ": good unaffected") true
                (reply_ok good);
              check_results (name ^ ": good tenant") good expected
            | _ -> Alcotest.fail "pool arity");
            (* The failed tenant is released: it can reconnect clean. *)
            let retry =
              send_exn ~socket_path ~tenant:("bad-" ^ name) ~delays trace
            in
            Alcotest.(check bool) (name ^ ": tenant recovers") true
              (reply_ok retry))
          faults)
  in
  Alcotest.(check int) "errors counted" (List.length faults)
    stats.Server.errored;
  Alcotest.(check int) "completions counted"
    (2 * List.length faults)
    stats.Server.completed

let test_duplicate_tenant_busy () =
  let _, trace = fixture_stream () in
  let (), stats, _ =
    with_server (fun socket_path ->
        (* Hold a connection open mid-handshake-plus-prefix so the
           tenant stays registered while a second one arrives. *)
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX socket_path);
            let line = "HPSERVE1 dup net 7\n" in
            ignore
              (Unix.write_substring fd line 0 (String.length line) : int);
            (* Give the select loop time to register the tenant. *)
            Unix.sleepf 0.1;
            let reply = send_exn ~socket_path ~tenant:"dup" trace in
            Alcotest.(check bool) "second stream refused" false
              (reply_ok reply);
            Alcotest.(check (option string)) "busy code" (Some "busy")
              (reply_error_code reply));
        (* First connection now disconnects mid-stream (error two), and
           the tenant becomes available again. *)
        Unix.sleepf 0.1;
        let reply = send_exn ~socket_path ~tenant:"dup" trace in
        Alcotest.(check bool) "tenant free after disconnect" true
          (reply_ok reply))
  in
  Alcotest.(check int) "busy + disconnect errors" 2 stats.Server.errored;
  Alcotest.(check int) "one completion" 1 stats.Server.completed

let test_mid_frame_disconnect_cuts () =
  (* Cut the stream at many offsets, including mid-header and
     mid-payload; every cut must produce a typed error ("disconnect",
     or "lint"/"decode" when the cut lands on a frame boundary whose
     absence the linter sees first), never a crash or a hang. *)
  let _, trace = fixture_stream ~chunk_instances:64 () in
  let n = String.length trace in
  let cuts = [ 9; 13; n / 4; n / 2; n - 1 ] in
  let (), stats, _ =
    with_server (fun socket_path ->
        List.iteri
          (fun i cut ->
            let reply =
              send_exn ~socket_path
                ~tenant:(Printf.sprintf "cut-%d" i)
                (String.sub trace 0 cut)
            in
            Alcotest.(check bool)
              (Printf.sprintf "cut at %d refused" cut)
              false (reply_ok reply);
            match reply_error_code reply with
            | Some ("disconnect" | "decode" | "lint") -> ()
            | other ->
              Alcotest.failf "cut at %d: unexpected code %s" cut
                (Option.value ~default:"<none>" other))
          cuts)
  in
  Alcotest.(check int) "every cut errored" (List.length cuts)
    stats.Server.errored

(* ------------------------------------------------------------------ *)
(* Concurrency soak                                                    *)
(* ------------------------------------------------------------------ *)

let test_concurrent_soak () =
  (* N writer domains x M tenants each against one daemon, under an
     explicit domain budget.  Every tenant's reply must match the
     single-client local baseline bit-for-bit, and the bounded queues
     must never overflow their capacity. *)
  let r, trace = fixture_stream ~chunk_instances:128 () in
  let delays = [ 1; 50 ] in
  let expected = expected_results (module Net) ~delays r in
  let writers = 4 and tenants_each = 3 in
  let queue_capacity = 4 in
  let (), stats, _ =
    with_server ~queue_capacity (fun socket_path ->
        let replies =
          Pool.with_domain_limit (writers + 1) (fun () ->
              Pool.map ~jobs:writers
                (fun w ->
                  List.init tenants_each (fun k ->
                      let tenant = Printf.sprintf "soak-%d-%d" w k in
                      (* Vary write sizes so frame tearing differs per
                         client. *)
                      let chunk_bytes = 512 + (997 * ((w + k) mod 3)) in
                      send_exn ~socket_path ~tenant ~delays ~chunk_bytes trace))
                (List.init writers Fun.id))
        in
        List.iteri
          (fun i reply ->
            let label = Printf.sprintf "soak reply %d" i in
            Alcotest.(check bool) (label ^ " ok") true (reply_ok reply);
            check_results label reply expected)
          (List.concat replies))
  in
  Alcotest.(check int) "all completed" (writers * tenants_each)
    stats.Server.completed;
  Alcotest.(check int) "no errors" 0 stats.Server.errored;
  Alcotest.(check bool) "queue bound respected" true
    (stats.Server.queue_high_water <= queue_capacity);
  Alcotest.(check int) "instances accounted"
    (writers * tenants_each * Array.length r.Recorder.instances)
    stats.Server.instances

let suites =
  [
    ( "serve.roundtrip",
      [
        Alcotest.test_case "single tenant ≡ local replay" `Quick
          test_roundtrip;
        Alcotest.test_case "torn writes reassemble" `Quick
          test_roundtrip_write_granularities;
        Alcotest.test_case "every scheme served" `Quick test_all_schemes_served;
      ] );
    ( "serve.faults",
      [
        Alcotest.test_case "handshake errors typed" `Quick
          test_handshake_errors;
        Alcotest.test_case "faults isolated per tenant" `Quick
          test_fault_isolation;
        Alcotest.test_case "duplicate tenant busy" `Quick
          test_duplicate_tenant_busy;
        Alcotest.test_case "mid-frame disconnects" `Quick
          test_mid_frame_disconnect_cuts;
      ] );
    ( "serve.soak",
      [ Alcotest.test_case "N writers x M tenants" `Quick test_concurrent_soak ] );
  ]
