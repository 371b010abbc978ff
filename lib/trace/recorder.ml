module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm

type t = {
  program : Cfg.program;
  table : Path_table.t;
  instances : int array;
  arrivals : Bytes.t;
  vm_stats : Vm.run_stats;
}

let arrival_code = function
  | Path.Loop_head -> '\000'
  | Path.Entry -> '\001'
  | Path.Continuation -> '\002'

let arrival_of_code = function
  | '\000' -> Path.Loop_head
  | '\001' -> Path.Entry
  | '\002' -> Path.Continuation
  | c -> invalid_arg (Printf.sprintf "Recorder: bad arrival code %d" (Char.code c))

type chunked_summary = {
  cs_instances : int;
  cs_paths : int;
  cs_vm_stats : Vm.run_stats;
}

let default_chunk_instances = 65_536

(* The one recording loop: step the VM, feed the segmenter, intern each
   completed path on its key.  A path cut off by fuel (or by
   [max_paths]) is discarded: a truncated prefix is not a completed
   path, and because non-branch transfers add no signature bits it
   could collide with a genuine path that continues through a jump
   chain.  A path ended by program exit is completed by the segmenter. *)
let run ?(max_steps = max_int) ?(max_paths = max_int) ?max_stack program behavior
    ~rng ~table ~on_instance =
  let vm = Vm.create ?max_stack program behavior ~rng in
  let seg = Segmenter.create program in
  let instances = ref 0 in
  while !instances < max_paths && Segmenter.next seg vm ~max_steps do
    incr instances;
    on_instance (Path_table.intern_completed table seg) seg.Segmenter.arrival
  done;
  { cs_instances = !instances; cs_paths = Path_table.size table; cs_vm_stats = Vm.stats vm }

let record_chunked ?max_steps ?max_paths ?max_stack
    ?(chunk_instances = default_chunk_instances) program behavior ~rng ~flush
    ~finish =
  if chunk_instances < 1 then
    invalid_arg "Recorder.record_chunked: chunk_instances must be >= 1";
  let table = Path_table.create () in
  let chunk = Batch.create ~capacity:(min chunk_instances 65_536) () in
  let flush_chunk () =
    let n = Batch.length chunk in
    if n > 0 then begin
      flush ~table ~ids:(Array.sub chunk.Batch.ids 0 n)
        ~arrivals:(Bytes.sub chunk.Batch.arrs 0 n);
      Batch.clear chunk
    end
  in
  let summary =
    run ?max_steps ?max_paths ?max_stack program behavior ~rng ~table
      ~on_instance:(fun id arrival ->
          Batch.push chunk id (arrival_code arrival);
          if Batch.length chunk >= chunk_instances then flush_chunk ())
  in
  flush_chunk ();
  finish ~table ~vm_stats:summary.cs_vm_stats;
  summary

(* An instance budget up to [presize_limit] sizes the stream buffer up
   front: a run that spends its budget (the usual case) then hands the
   buffer over as the recording, with no growth copies and no garbage. *)
let presize_limit = 1 lsl 20

let record ?max_steps ?(max_paths = max_int) ?max_stack program behavior ~rng =
  let table = Path_table.create () in
  let all =
    Batch.create ~capacity:(if max_paths <= presize_limit then max_paths else 65_536) ()
  in
  let summary =
    run ?max_steps ~max_paths ?max_stack program behavior ~rng ~table
      ~on_instance:(fun id arrival -> Batch.push all id (arrival_code arrival))
  in
  let n = Batch.length all in
  let exact = n = Array.length all.Batch.ids in
  {
    program;
    table;
    instances = (if exact then all.Batch.ids else Array.sub all.Batch.ids 0 n);
    arrivals = (if exact then all.Batch.arrs else Bytes.sub all.Batch.arrs 0 n);
    vm_stats = summary.cs_vm_stats;
  }

let of_parts ~program ~table ~instances ~arrivals ~vm_stats =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match Cfg.validate program with
  | Error e -> err "invalid program: %s" e
  | Ok () ->
    let n_paths = Path_table.size table in
    let n_blocks = Array.length program.Cfg.blocks in
    if Bytes.length arrivals <> Array.length instances then
      err "arrivals length %d <> instances length %d" (Bytes.length arrivals)
        (Array.length instances)
    else if Array.exists (fun id -> id < 0 || id >= n_paths) instances then
      err "instance path id out of range"
    else if
      Bytes.exists (fun c -> Char.code c > 2) arrivals
    then err "invalid arrival code"
    else begin
      let bad_path = ref None in
      Path_table.iter
        (fun p ->
           if
             !bad_path = None
             && Array.exists (fun b -> b < 0 || b >= n_blocks) p.Path.blocks
           then bad_path := Some p.Path.id)
        table;
      match !bad_path with
      | Some id -> err "path %d references blocks outside the program" id
      | None -> (
          match
            List.find_opt
              (fun d -> d.Hotpath_analysis.Diag.severity = Hotpath_analysis.Diag.Error)
              (Lint.check_parts ~program ~table ~instances ~arrivals)
          with
          | Some d -> err "%s" (Hotpath_analysis.Diag.to_string d)
          | None -> Ok { program; table; instances; arrivals; vm_stats })
    end

let lint t =
  Lint.check_parts ~program:t.program ~table:t.table ~instances:t.instances
    ~arrivals:t.arrivals

let num_instances t = Array.length t.instances

let num_paths t = Path_table.size t.table

let instance_path t i = Path_table.path t.table t.instances.(i)

let arrival t i = arrival_of_code (Bytes.get t.arrivals i)

let frequencies t =
  let freq = Array.make (Path_table.size t.table) 0 in
  Array.iter (fun id -> freq.(id) <- freq.(id) + 1) t.instances;
  freq

let head_arrival_counts t =
  let counts = Hashtbl.create 64 in
  Array.iteri
    (fun i id ->
       if arrival t i = Path.Loop_head then begin
         let head = Path.head (Path_table.path t.table id) in
         let prev = Option.value ~default:0 (Hashtbl.find_opt counts head) in
         Hashtbl.replace counts head (prev + 1)
       end)
    t.instances;
  counts

let unique_loop_heads t = Hashtbl.length (head_arrival_counts t)

let block_trace t =
  List.concat_map
    (fun id -> Array.to_list (Path_table.path t.table id).Path.blocks)
    (Array.to_list t.instances)
