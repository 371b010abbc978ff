(* Unit tests of the benchmark's own machinery: span self times and
   seeded input generation. *)

open Perfbench
module Suite = Hotpath_workloads.Suite
module Replay = Hotpath_prediction.Replay
module Schemes = Hotpath_prediction.Schemes

let span id ?(parent = -1) ?(op = 0) a b =
  { Span.id; name = Printf.sprintf "s%d" id; op; parent; start_ns = Int64.of_int a;
    stop_ns = Int64.of_int b }

let self_of spans id =
  Int64.to_int (snd (List.find (fun ((s : Span.span), _) -> s.Span.id = id) (Span.self_times spans)))

let test_nested () =
  (* root [0,100] > child [10,60] > grandchild [20,30]: the grandchild
     only comes out of its own parent. *)
  let spans = [ span 0 0 100; span 1 ~parent:0 10 60; span 2 ~parent:1 20 30 ] in
  Alcotest.(check int) "root" 50 (self_of spans 0);
  Alcotest.(check int) "child" 40 (self_of spans 1);
  Alcotest.(check int) "leaf" 10 (self_of spans 2)

let test_siblings () =
  (* Disjoint siblings add up; overlapping ones count once; the part of
     a child outside its parent is ignored; top-level siblings do not
     touch each other. *)
  let spans =
    [ span 0 0 100; span 1 ~parent:0 10 20; span 2 ~parent:0 40 70; span 3 ~parent:0 60 80;
      span 4 ~parent:0 95 130; span 5 100 200 ]
  in
  Alcotest.(check int) "parent" (100 - 10 - 40 - 5) (self_of spans 0);
  Alcotest.(check int) "second top-level" 100 (self_of spans 5);
  Alcotest.(check int) "leaf" 10 (self_of spans 1)

let test_recorder () =
  (* with_span links parents, passes the op id down and closes on raise. *)
  let t = Span.create () in
  Span.with_span t ~op:7 "a" (fun () ->
      Span.with_span t "b" (fun () -> ());
      try Span.with_span t "c" (fun () -> failwith "x") with Failure _ -> ());
  Span.with_span t ~op:8 "d" (fun () -> ());
  let spans = Span.spans t in
  let find n = List.find (fun (s : Span.span) -> s.Span.name = n) spans in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  Alcotest.(check int) "b under a" (find "a").Span.id (find "b").Span.parent;
  Alcotest.(check int) "c under a" (find "a").Span.id (find "c").Span.parent;
  Alcotest.(check int) "op inherited" 7 (find "c").Span.op;
  Alcotest.(check int) "d top-level" (-1) (find "d").Span.parent;
  Alcotest.(check int) "d op" 8 (find "d").Span.op;
  let self = Span.self_times spans in
  List.iter
    (fun ((s : Span.span), v) ->
      Alcotest.(check bool) "self within duration" true
        (v >= 0L && v <= Span.duration_ns s))
    self

let counts ~seed =
  let b = Inputs.bench ~seed "deltablue" in
  let r = Suite.record ~scale:0.02 b in
  Util.prediction_counts (Replay.run_many (Schemes.of_name_exn "net") ~delays:[ 10; 50 ] r)

let test_determinism () =
  let bytes seed = Inputs.trace_bytes ~scale:0.02 (Inputs.bench ~seed "deltablue") in
  Alcotest.(check bool) "same seed, same trace bytes" true (bytes 1 = bytes 1);
  Alcotest.(check bool) "other seed, other trace bytes" false (bytes 1 = bytes 2);
  Alcotest.(check (triple int int int)) "same seed, same exact counts" (counts ~seed:1) (counts ~seed:1);
  let order seed =
    let st = Inputs.rng ~seed ~salt:1 in
    List.init 3 (fun _ -> Array.to_list (Inputs.permutation st 12))
  in
  Alcotest.(check (list (list int))) "same seed, same op order" (order 1) (order 1);
  Alcotest.(check bool) "other seed, other op order" false (order 1 = order 2)

(* The catalogue the benchmark prints from and BENCHMARK.json list the
   same metrics with the same units, in the same order. *)
let test_catalogue () =
  let json =
    In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all
    |> String.to_seq
    |> Seq.filter (fun c -> not (List.mem c [ ' '; '\n'; '\t'; '\r' ]))
    |> String.of_seq
  in
  let positions =
    List.map
      (fun (name, unit_) ->
        let entry = Printf.sprintf "\"name\":\"%s\",\"unit\":\"%s\"" name unit_ in
        let rec find i =
          if i + String.length entry > String.length json then
            Alcotest.failf "%s (%s) missing from BENCHMARK.json" name unit_
          else if String.sub json i (String.length entry) = entry then i
          else find (i + 1)
        in
        find 0)
      (Catalog.end_to_end @ Catalog.per_layer)
  in
  Alcotest.(check (list int)) "same order" (List.sort compare positions) positions

let () =
  Alcotest.run "perfbench"
    [
      ( "span",
        [ Alcotest.test_case "nested self time" `Quick test_nested;
          Alcotest.test_case "sibling self time" `Quick test_siblings;
          Alcotest.test_case "recorder structure" `Quick test_recorder ] );
      ("inputs", [ Alcotest.test_case "seeded determinism" `Quick test_determinism ]);
      ("catalogue", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalogue ]);
    ]
