(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (replay-mmap, serve-mix or figures-suite) for S
   seconds on inputs generated from seed N, checks every output against
   a reference computed another way, prints a report, and ends with one
   JSON line: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 a
   separate traced run reports the per-layer ones.  Exits 1 when any
   output was wrong, 2 when the run could not be made.

   Working files go under .perfbench/ in the current directory: each run
   uses a fresh run-<pid> directory there and removes it when it exits;
   a traced run leaves its spans in .perfbench/spans-<workload>-<seed>.jsonl. *)

open Perfbench

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Unix.unlink path with Unix.Unix_error _ -> ())

let out_dir = ".perfbench"

let fresh_dir () =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  remove_tree dir;
  Unix.mkdir dir 0o700;
  at_exit (fun () ->
      Serve_mix.stop_all ();
      remove_tree dir);
  dir

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let hotpath = ref "_build/default/bin/hotpath_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " Catalog.workloads);
      ("--seed", Arg.Set_int seed, "N  input generator seed");
      ("--seconds", Arg.Set_int seconds, "S  measurement length");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or traced per-layer (1) run");
      ("--hotpath", Arg.Set_string hotpath, "EXE  the hotpath binary serve-mix starts");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Catalog.workloads) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  (* Stopping by signal still stops the daemon and removes the run
     directory: exit runs the at_exit handlers. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ];
  let traced = !trace = 1 in
  let secs = float_of_int (max 1 !seconds) in
  match
    let dir = fresh_dir () in
    match !workload with
    | "replay-mmap" -> Replay_mmap.run ~dir ~seed:!seed ~seconds:secs ~trace:traced
    | "serve-mix" -> Serve_mix.run ~dir ~hotpath:!hotpath ~seed:!seed ~seconds:secs ~trace:traced
    | _ -> Figures_suite.run ~dir ~seed:!seed ~seconds:secs ~trace:traced
  with
  | exception e ->
    Printf.eprintf "perfbench %s: %s\n" !workload (Printexc.to_string e);
    exit 2
  | o ->
    let metrics =
      if traced then
        List.map
          (fun (name, unit_) ->
            Util.metric name unit_ (Option.value (List.assoc_opt name o.Util.layers) ~default:0.0))
          Catalog.per_layer
      else o.Util.e2e
    in
    let fail_ratio = float_of_int o.Util.failed /. float_of_int (max 1 o.Util.attempted) in
    Printf.printf "perfbench %s seed=%d trace=%d\n" !workload !seed !trace;
    List.iter (fun n -> Printf.printf "  %s\n" n) o.Util.notes;
    List.iter
      (fun m -> Printf.printf "  %-34s %.6g %s\n" m.Util.name m.Util.value m.Util.unit_)
      (if traced then metrics @ o.Util.e2e else metrics);
    Printf.printf "  %-34s %.6g (%d of %d ops failed)\n" "fail_ratio" fail_ratio
      o.Util.failed o.Util.attempted;
    (match o.Util.spans with
     | [] -> ()
     | spans ->
       let path =
         Filename.concat out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed)
       in
       Span.write_jsonl spans ~self:(Span.self_times spans) path;
       Printf.printf "  spans: %d written to %s\n" (List.length spans) path);
    Printf.printf "meta %s\n"
      (Util.meta_json
         { Util.workload = !workload; seed = !seed; seconds = !seconds; trace = traced;
           ops = o.Util.ops; measured_s = o.Util.measured_s });
    let correct = o.Util.failed = 0 in
    print_endline
      (Util.result_json
         { Util.correct; attempted = o.Util.attempted; failed = o.Util.failed; metrics });
    if not correct then exit 1
