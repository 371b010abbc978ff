(* The k-iteration scheme families (ROADMAP item 4).

   Three contracts:

   - Reduction: at k = 1 the families are the paper's schemes.
     [path-profile-k1] must equal [path-profile] and [net-k1] must equal
     [net] bit-for-bit — every outcome field except the scheme name,
     the event stream, and the counter registry — across the whole
     benchmark suite, at every jobs/chunk granularity the sharded
     engines accept.  This is the guard that the sliding-window trie
     and the re-armed NET counter are strict generalizations, not
     near-misses.

   - Static bounds: the saturating [Bounds] mirrors agree exactly with
     the raising analyzer ([Overflow] iff [Ball_larus.num_kpaths]
     raises, equal when neither trips), collapse to the k-free
     analyses at k = 1, and dominate the dynamic counter space the
     replayed trie ever allocates.

   - Grammar: [Schemes.of_name] accepts exactly the canonical
     [net-k<k>]/[path-profile-k<k>] spellings and returns typed errors
     for the rest — the same parse the serve handshake uses. *)

module Cfg = Hotpath_cfg.Cfg
module Recorder = Hotpath_trace.Recorder
module Kpath = Hotpath_trace.Kpath
module Ball_larus = Hotpath_profiling.Ball_larus
module Bounds = Hotpath_analysis.Bounds
module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Net_k = Hotpath_prediction.Net_k
module Path_profile_k = Hotpath_prediction.Path_profile_k
module Schemes = Hotpath_prediction.Schemes
module Replay = Hotpath_prediction.Replay
module Suite = Hotpath_workloads.Suite
module Events = Hotpath_util.Events
module Pool = Hotpath_util.Pool

let delays = [ 1; 7; 50 ]

(* One small recording per benchmark, shared across the suite. *)
let recordings =
  lazy (List.map (fun b -> (b.Suite.b_name, Suite.record ~scale:0.02 b)) Suite.all)

(* (k-scheme, base scheme) pairs that must coincide at k = 1. *)
let k1_pairs : (string * Scheme.packed * string * Scheme.packed) list =
  [
    ("net-k1", Net_k.make 1, "net", (module Net));
    ( "path-profile-k1",
      Path_profile_k.make 1,
      "path-profile",
      (module Path_profile) );
  ]

(* Every outcome field except the scheme's own name. *)
let check_outcome_sans_name label (a : Replay.outcome) (b : Replay.outcome) =
  let chk name = Alcotest.(check int) (label ^ ": " ^ name) in
  chk "delay" a.Replay.delay b.Replay.delay;
  chk "total_instances" a.Replay.total_instances b.Replay.total_instances;
  Alcotest.(check bool)
    (label ^ ": predictions") true
    (a.Replay.predictions = b.Replay.predictions);
  Alcotest.(check (array int)) (label ^ ": predicted_at") a.Replay.predicted_at
    b.Replay.predicted_at;
  Alcotest.(check (array int)) (label ^ ": freq") a.Replay.freq b.Replay.freq;
  Alcotest.(check (array int)) (label ^ ": captured") a.Replay.captured
    b.Replay.captured;
  chk "profiled_instances" a.Replay.profiled_instances
    b.Replay.profiled_instances;
  chk "captured_instances" a.Replay.captured_instances
    b.Replay.captured_instances;
  chk "counter_space" a.Replay.counter_space b.Replay.counter_space;
  chk "profiling_ops" a.Replay.profiling_ops b.Replay.profiling_ops;
  chk "collection_ops" a.Replay.collection_ops b.Replay.collection_ops

let check_outcomes_sans_name label xs ys =
  Alcotest.(check int) (label ^ ": lane count") (List.length xs)
    (List.length ys);
  List.iter2 (check_outcome_sans_name label) xs ys

(* ------------------------------------------------------------------ *)
(* k = 1 reduction: outcomes                                           *)
(* ------------------------------------------------------------------ *)

(* The CI gate for the reduction: all nine benchmarks, both pairs, the
   base scheme replayed serially and the k1 scheme through every
   jobs/chunk engine.  jobs = 4 runs under a real 4-domain budget (the
   fan-out clamps to available cores; results are identical either
   way). *)
let test_k1_equals_base_all_benchmarks () =
  List.iter
    (fun (bname, r) ->
       List.iter
         (fun (kname, kscheme, base_name, base) ->
            let expected = Replay.run_many base ~delays r in
            List.iter
              (fun (jobs, chunk) ->
                 let got =
                   Pool.with_domain_limit 4 (fun () ->
                       Replay.run_many ~jobs ~chunk kscheme ~delays r)
                 in
                 check_outcomes_sans_name
                   (Printf.sprintf "%s: %s==%s jobs=%d chunk=%d" bname kname
                      base_name jobs chunk)
                   expected got)
              [
                (1, Replay.default_chunk);
                (1, 997);
                (4, Replay.default_chunk);
                (4, 1);
                (4, 997);
              ])
         k1_pairs)
    (Lazy.force recordings)

(* ------------------------------------------------------------------ *)
(* k = 1 reduction: event streams and the counter registry             *)
(* ------------------------------------------------------------------ *)

(* The sampler embeds the scheme name in every emitted window, so the
   streams are compared after rewriting "net-k1" -> "net" (resp.
   path-profile); everything else must match byte-for-byte. *)
let rewrite ~from ~into s =
  let flen = String.length from in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    if !i + flen <= n && String.sub s !i flen = from then begin
      Buffer.add_string buf into;
      i := !i + flen
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_k1_event_streams_and_registry () =
  let r = List.assoc "compress" (Lazy.force recordings) in
  List.iter
    (fun (kname, kscheme, base_name, base) ->
       let capture scheme =
         let buf = Buffer.create 4096 in
         let ev = Replay.events ~window:512 (Events.of_buffer buf) in
         Events.Registry.reset ();
         ignore
           (Replay.run_many ~events:ev scheme ~delays r : Replay.outcome list);
         let snap = Events.Registry.snapshot () in
         Events.Registry.reset ();
         (Buffer.contents buf, snap)
       in
       let base_lines, base_registry = capture base in
       let k_lines, k_registry = capture kscheme in
       Alcotest.(check string)
         (kname ^ " event stream == " ^ base_name)
         base_lines
         (rewrite ~from:kname ~into:base_name k_lines);
       Alcotest.(check bool)
         (kname ^ " registry snapshot == " ^ base_name)
         true (base_registry = k_registry))
    k1_pairs

(* ------------------------------------------------------------------ *)
(* Kernel == generic walker at k > 1                                   *)
(* ------------------------------------------------------------------ *)

(* Eta-expanding [create] and [observe] breaks the physical identity the
   kernel dispatch keys on ([create] for the k-families, [observe] for
   the base schemes), so the wrapped module takes the generic
   first-class-module loop; outcomes must not change. *)
let wrap (module S : Scheme.S) : Scheme.packed =
  (module struct
    type t = S.t

    let name = S.name
    let create ~delay ~program = S.create ~delay ~program

    let observe t ~head ~arrival ~path_id ~n_branches ~n_blocks =
      S.observe t ~head ~arrival ~path_id ~n_branches ~n_blocks

    let collect = S.collect
    let counter_space = S.counter_space
    let profiling_ops = S.profiling_ops
    let collection_ops = S.collection_ops
  end)

let test_kernels_equal_generic () =
  let r = List.assoc "compress" (Lazy.force recordings) in
  List.iter
    (fun k ->
       List.iter
         (fun (family, make) ->
            let packed = make k in
            let kernel = Replay.run_many packed ~delays r in
            let generic = Replay.run_many (wrap packed) ~delays r in
            check_outcomes_sans_name
              (Printf.sprintf "%s-k%d kernel==generic" family k)
              generic kernel;
            let sharded =
              Pool.with_domain_limit 4 (fun () ->
                  Replay.run_many ~jobs:4 ~chunk:997 packed ~delays r)
            in
            check_outcomes_sans_name
              (Printf.sprintf "%s-k%d sharded==generic" family k)
              generic sharded)
         [ ("net", Net_k.make); ("path-profile", Path_profile_k.make) ])
    [ 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Static bounds                                                       *)
(* ------------------------------------------------------------------ *)

(* The saturating mirror and the raising analyzer run the same DP in
   the same order, so they must agree exactly: [Overflow] iff
   [num_kpaths] raises, equal values otherwise. *)
let test_bounds_mirror_analyzer () =
  let cap = 1 lsl 50 in
  List.iter
    (fun (bname, (r : Recorder.t)) ->
       let program = r.Recorder.program in
       for k = 1 to 4 do
         for proc = 0 to Cfg.num_procs program - 1 do
           let static = Bounds.bl_kpaths ~cap program ~proc ~k in
           let exact =
             match Ball_larus.num_kpaths program ~proc ~k with
             | n -> Some n
             | exception Invalid_argument _ -> None
           in
           match (static, exact) with
           | Bounds.Exact s, Some n ->
             Alcotest.(check int)
               (Printf.sprintf "%s proc %d k=%d" bname proc k)
               n s
           | Bounds.Overflow, None -> ()
           | Bounds.Exact s, None ->
             Alcotest.failf "%s proc %d k=%d: analyzer overflowed, mirror %d"
               bname proc k s
           | Bounds.Overflow, Some n ->
             Alcotest.failf "%s proc %d k=%d: mirror overflowed, analyzer %d"
               bname proc k n
         done
       done)
    (Lazy.force recordings)

let test_bounds_k1_reductions () =
  List.iter
    (fun (bname, (r : Recorder.t)) ->
       let program = r.Recorder.program in
       for proc = 0 to Cfg.num_procs program - 1 do
         Alcotest.(check bool)
           (Printf.sprintf "%s proc %d: bl_kpaths k1 == bl_paths" bname proc)
           true
           (Bounds.bl_kpaths program ~proc ~k:1 = Bounds.bl_paths program ~proc)
       done;
       Alcotest.(check bool)
         (bname ^ ": kpath_walks k1 == forward_walks")
         true
         (Bounds.kpath_walks program ~k:1 = Bounds.forward_walks program))
    (Lazy.force recordings)

(* A tiny cap forces the saturation paths (count_mul's division guard
   included) without needing a pathological program. *)
let test_bounds_small_cap_saturates () =
  let r = List.assoc "gcc" (Lazy.force recordings) in
  let program = r.Recorder.program in
  Alcotest.(check bool) "gcc k=2 cap=8 saturates" true
    (Bounds.bl_ktotal ~cap:8 program ~k:2 = Bounds.Overflow);
  Alcotest.(check bool) "gcc kpath_walks cap=8 saturates" true
    (Bounds.kpath_walks ~cap:8 program ~k:2 = Bounds.Overflow);
  Alcotest.(check bool) "count_mul saturates at the cap" true
    (Bounds.count_mul ~cap:100 (Bounds.Exact 11) (Bounds.Exact 10)
     = Bounds.Overflow);
  Alcotest.(check bool) "count_mul zero absorbs overflow-sized factors" true
    (Bounds.count_mul ~cap:100 (Bounds.Exact 0) (Bounds.Exact max_int)
     = Bounds.Exact 0)

(* The replayed trie (suffix nodes included) can never allocate more
   counters than the static walk bound. *)
let test_dynamic_counter_space_within_bounds () =
  List.iter
    (fun (bname, (r : Recorder.t)) ->
       let program = r.Recorder.program in
       List.iter
         (fun k ->
            let outcome =
              Replay.run (Path_profile_k.make k) ~delay:1 r
            in
            match Bounds.kpath_walks program ~k with
            | Bounds.Overflow -> ()
            | Bounds.Exact bound ->
              Alcotest.(check bool)
                (Printf.sprintf "%s k=%d: %d counters <= %d walks" bname k
                   outcome.Replay.counter_space bound)
                true
                (outcome.Replay.counter_space <= bound))
         [ 1; 2; 3; 4 ])
    (Lazy.force recordings)

(* ------------------------------------------------------------------ *)
(* The scheme-name grammar                                             *)
(* ------------------------------------------------------------------ *)

let test_schemes_of_name_valid () =
  List.iter
    (fun name ->
       match Schemes.of_name name with
       | Ok packed ->
         Alcotest.(check string) ("round-trips " ^ name) name (Scheme.name packed)
       | Error e -> Alcotest.failf "%s rejected: %s" name e)
    [
      "net"; "net-once"; "let"; "path-profile"; "net-k1"; "net-k2";
      "path-profile-k1"; "path-profile-k3";
      "net-k" ^ string_of_int Schemes.max_k;
    ];
  (* Parsed k-schemes are the memoized instances the kernels recognize. *)
  (match Schemes.of_name "path-profile-k2" with
   | Ok packed ->
     Alcotest.(check (option int)) "recognized as k=2" (Some 2)
       (Path_profile_k.recognize packed)
   | Error e -> Alcotest.failf "path-profile-k2: %s" e);
  match Schemes.of_name "net-k3" with
  | Ok packed ->
    Alcotest.(check (option int)) "recognized as k=3" (Some 3)
      (Net_k.recognize packed)
  | Error e -> Alcotest.failf "net-k3: %s" e

let test_schemes_of_name_rejects () =
  let expect_error name fragment =
    match Schemes.of_name name with
    | Ok _ -> Alcotest.failf "%S accepted" name
    | Error e ->
      let lower = String.lowercase_ascii e in
      Alcotest.(check bool)
        (Printf.sprintf "%S error mentions %S (got %S)" name fragment e)
        true
        (let flen = String.length fragment in
         let n = String.length lower in
         let rec scan i =
           i + flen <= n
           && (String.sub lower i flen = fragment || scan (i + 1))
         in
         scan 0)
  in
  expect_error "path-profile-k0" "within [1,";
  expect_error "net-k0" "within [1,";
  expect_error ("net-k" ^ string_of_int (Schemes.max_k + 1)) "within [1,";
  expect_error "net-kfoo" "decimal";
  expect_error "path-profile-k" "decimal";
  (* Non-canonical spellings of a valid k are rejected, so a scheme
     string is a unique key everywhere it is logged or compared. *)
  expect_error "net-k02" "decimal";
  expect_error "net-k+2" "decimal";
  expect_error "nope" "unknown scheme";
  match Schemes.of_name "net" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "net rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Kpath interner unit tests                                           *)
(* ------------------------------------------------------------------ *)

let test_kpath_window_slides () =
  let t = Kpath.create ~k:2 in
  let a = Kpath.advance t ~cur:Kpath.root ~arrival:Hotpath_trace.Path.Entry ~pid:5 in
  Alcotest.(check int) "depth 1 after entry" 1 (Kpath.depth t a);
  let b = Kpath.advance t ~cur:a ~arrival:Hotpath_trace.Path.Loop_head ~pid:6 in
  Alcotest.(check int) "depth 2 after extension" 2 (Kpath.depth t b);
  let c = Kpath.advance t ~cur:b ~arrival:Hotpath_trace.Path.Loop_head ~pid:7 in
  Alcotest.(check int) "depth capped at k" 2 (Kpath.depth t c);
  (* Sliding off [5;6;7] leaves the window [6;7]: re-walking 6 then 7
     from the root must land on the same node. *)
  let b' = Kpath.advance t ~cur:Kpath.root ~arrival:Hotpath_trace.Path.Entry ~pid:6 in
  let c' = Kpath.advance t ~cur:b' ~arrival:Hotpath_trace.Path.Loop_head ~pid:7 in
  Alcotest.(check int) "suffix window shared" c c';
  (* An entry arrival restarts the window regardless of depth. *)
  let d = Kpath.advance t ~cur:c ~arrival:Hotpath_trace.Path.Entry ~pid:5 in
  Alcotest.(check int) "entry restarts to the k=1 node" a d;
  let n = Kpath.num_nodes t in
  ignore (Kpath.advance t ~cur:b ~arrival:Hotpath_trace.Path.Loop_head ~pid:7);
  Alcotest.(check int) "interning is idempotent" n (Kpath.num_nodes t)

let test_kpath_k1_is_flat () =
  let t = Kpath.create ~k:1 in
  let a = Kpath.advance t ~cur:Kpath.root ~arrival:Hotpath_trace.Path.Entry ~pid:3 in
  let b = Kpath.advance t ~cur:a ~arrival:Hotpath_trace.Path.Loop_head ~pid:4 in
  let c = Kpath.advance t ~cur:b ~arrival:Hotpath_trace.Path.Loop_head ~pid:3 in
  Alcotest.(check int) "k=1 re-interns the same path node" a c;
  Alcotest.(check int) "two distinct paths, two nodes past the root" 2
    (Kpath.num_nodes t - 1);
  Alcotest.(check int) "depth never exceeds 1" 1 (Kpath.depth t b)

let suites =
  [
    ( "kschemes.reduction",
      [
        Alcotest.test_case "k1 == base across suite x jobs x chunks" `Quick
          test_k1_equals_base_all_benchmarks;
        Alcotest.test_case "k1 event streams and registry" `Quick
          test_k1_event_streams_and_registry;
        Alcotest.test_case "kernels == generic walker (k=2,3)" `Quick
          test_kernels_equal_generic;
      ] );
    ( "kschemes.bounds",
      [
        Alcotest.test_case "saturating mirror iff analyzer raise" `Quick
          test_bounds_mirror_analyzer;
        Alcotest.test_case "k=1 collapses to the k-free analyses" `Quick
          test_bounds_k1_reductions;
        Alcotest.test_case "small caps saturate" `Quick
          test_bounds_small_cap_saturates;
        Alcotest.test_case "dynamic counter space <= static walks" `Quick
          test_dynamic_counter_space_within_bounds;
      ] );
    ( "kschemes.grammar",
      [
        Alcotest.test_case "canonical names accepted" `Quick
          test_schemes_of_name_valid;
        Alcotest.test_case "malformed names typed-rejected" `Quick
          test_schemes_of_name_rejects;
      ] );
    ( "kschemes.kpath",
      [
        Alcotest.test_case "window slides via suffix links" `Quick
          test_kpath_window_slides;
        Alcotest.test_case "k=1 trie is flat" `Quick test_kpath_k1_is_flat;
      ] );
  ]
