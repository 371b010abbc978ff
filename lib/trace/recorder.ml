module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Behavior = Hotpath_vm.Behavior
module Vec = Hotpath_util.Vec

type descriptors = {
  d_heads : int array;
  d_branches : int array;
  d_blocks : int array;
}

type loop_index = {
  li_idx : int array;
  li_occ : int array;
  li_run_pid : int array;
  li_run_off : int array;
  li_run_len : int array;
  li_freq : int array;
}

type t = {
  program : Cfg.program;
  table : Path_table.t;
  instances : int array;
  arrivals : Bytes.t;
  vm_stats : Vm.run_stats;
  cache_descriptors : descriptors option Atomic.t;
  cache_loop_index : loop_index option Atomic.t;
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

let record_chunked ?(max_steps = max_int) ?(max_paths = max_int) ?max_stack
    ?(chunk_instances = default_chunk_instances) program behavior ~rng ~flush
    ~finish =
  if chunk_instances < 1 then
    invalid_arg "Recorder.record_chunked: chunk_instances must be >= 1";
  let vm = Vm.create ?max_stack program behavior ~rng in
  let seg = Segmenter.create program in
  let table = Path_table.create () in
  let chunk_ids = Vec.create ~capacity:(min chunk_instances 65_536) () in
  let chunk_arrivals = Buffer.create (min chunk_instances 65_536) in
  let total = ref 0 in
  let flush_chunk () =
    if not (Vec.is_empty chunk_ids) then begin
      flush ~table ~ids:(Vec.to_array chunk_ids)
        ~arrivals:(Buffer.to_bytes chunk_arrivals);
      Vec.clear chunk_ids;
      Buffer.clear chunk_arrivals
    end
  in
  let branches = ref 0
  and calls = ref 0
  and returns = ref 0
  and indirects = ref 0
  and backward = ref 0
  and max_stack_seen = ref 0 in
  let rec loop () =
    if !total >= max_paths then `Max_paths
    else if Vm.blocks_executed vm >= max_steps then `Fuel
    else
      match Vm.step vm with
      | None -> `Exited
      | Some tr ->
        (match tr.Vm.kind with
         | Vm.T_branch _ -> incr branches
         | Vm.T_call -> incr calls
         | Vm.T_return -> incr returns
         | Vm.T_indirect -> incr indirects
         | Vm.T_jump | Vm.T_exit -> ());
        if tr.Vm.backward then incr backward;
        max_stack_seen := max !max_stack_seen (Vm.stack_depth vm);
        (match Segmenter.feed seg tr with
         | Some c ->
           let id =
             Path_table.intern table c.Segmenter.c_signature
               ~blocks:c.Segmenter.c_blocks ~n_instrs:c.Segmenter.c_n_instrs
               ~n_branches:c.Segmenter.c_n_branches ~end_kind:c.Segmenter.c_end_kind
           in
           Vec.push chunk_ids id;
           Buffer.add_char chunk_arrivals (arrival_code c.Segmenter.c_arrival);
           incr total;
           if Vec.length chunk_ids >= chunk_instances then flush_chunk ()
         | None -> ());
        if tr.Vm.kind = Vm.T_exit then `Exited else loop ()
  in
  let reason = loop () in
  (* A path cut off by fuel (or by [max_paths]) is discarded: a truncated
     prefix is not a completed path, and because non-branch transfers add
     no signature bits it could collide with a genuine path that continues
     through a jump chain.  Paths ended by program exit were yielded by the
     segmenter inside the loop. *)
  let vm_stats =
    {
      Vm.reason = (match reason with `Exited -> `Exited | `Fuel | `Max_paths -> `Fuel);
      blocks = Vm.blocks_executed vm;
      branches = !branches;
      calls = !calls;
      returns = !returns;
      indirects = !indirects;
      backward_transfers = !backward;
      max_stack = !max_stack_seen;
    }
  in
  flush_chunk ();
  finish ~table ~vm_stats;
  { cs_instances = !total; cs_paths = Path_table.size table; cs_vm_stats = vm_stats }

let record ?max_steps ?max_paths ?max_stack program behavior ~rng =
  let instances = Vec.create () in
  let arrivals = Buffer.create 4096 in
  let result = ref None in
  ignore
    (record_chunked ?max_steps ?max_paths ?max_stack program behavior ~rng
       ~flush:(fun ~table:_ ~ids ~arrivals:arr ->
           Array.iter (Vec.push instances) ids;
           Buffer.add_bytes arrivals arr)
       ~finish:(fun ~table ~vm_stats -> result := Some (table, vm_stats)));
  match !result with
  | None -> assert false
  | Some (table, vm_stats) ->
    {
      program;
      table;
      instances = Vec.to_array instances;
      arrivals = Buffer.to_bytes arrivals;
      vm_stats;
      cache_descriptors = Atomic.make None;
      cache_loop_index = Atomic.make None;
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
          | None ->
            Ok
              {
                program;
                table;
                instances;
                arrivals;
                vm_stats;
                cache_descriptors = Atomic.make None;
                          cache_loop_index = Atomic.make None;
              })
    end

let lint t =
  Lint.check_parts ~program:t.program ~table:t.table ~instances:t.instances
    ~arrivals:t.arrivals

let num_instances t = Array.length t.instances

let num_paths t = Path_table.size t.table

(* Lazily computed, atomically published caches.  Replay is fanned out
   over domains by the experiment layer, so two domains may race to fill
   a cache; compare-and-set keeps one winner and the loser adopts it —
   the computed value is a pure function of the (immutable) recording, so
   either copy is correct. *)
let cached cell compute =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    let v = compute () in
    if Atomic.compare_and_set cell None (Some v) then v
    else Option.get (Atomic.get cell)

let descriptors t =
  cached t.cache_descriptors (fun () ->
      let n_paths = Path_table.size t.table in
      let d_heads = Array.make n_paths 0
      and d_branches = Array.make n_paths 0
      and d_blocks = Array.make n_paths 0 in
      Path_table.iter
        (fun p ->
           d_heads.(p.Path.id) <- Path.head p;
           d_branches.(p.Path.id) <- p.Path.n_branches;
           d_blocks.(p.Path.id) <- Array.length p.Path.blocks)
        t.table;
      { d_heads; d_branches; d_blocks })

(* The NET replay kernels consume the trace only through its loop-head
   events (index + running occurrence count of the event's own path)
   grouped into maximal same-path runs per head — everything else is
   closed form over the final frequencies.  That compression is a pure
   function of the recording, so compute it once here and let every
   replay of the recording skip the raw-instance walk entirely.  A run
   is maximal over *consecutive loop-head events*; the chunk-sharded
   engine may split it anywhere, since a split run is just two shorter
   runs advancing the same carried counter. *)
let loop_index t =
  cached t.cache_loop_index (fun () ->
      let d = descriptors t in
      let heads = d.d_heads in
      let instances = t.instances in
      let arrivals = t.arrivals in
      let n = Array.length instances in
      let n_blocks = Array.length t.program.Cfg.blocks in
      let freq = Array.make (Path_table.size t.table) 0 in
      let open_run = Array.make n_blocks (-1) in
      let idx = Vec.create () and occ = Vec.create () in
      let run_pid = Vec.create ()
      and run_off = Vec.create ()
      and run_len = Vec.create () in
      for i = 0 to n - 1 do
        let pid = Array.unsafe_get instances i in
        let f = Array.unsafe_get freq pid + 1 in
        Array.unsafe_set freq pid f;
        if Bytes.unsafe_get arrivals i = '\000' (* loop head *) then begin
          let j = Vec.length idx in
          Vec.push idx i;
          Vec.push occ f;
          let h = Array.unsafe_get heads pid in
          let ri = Array.unsafe_get open_run h in
          if
            ri >= 0
            && Vec.get run_pid ri = pid
            && Vec.get run_off ri + Vec.get run_len ri = j
          then Vec.set run_len ri (Vec.get run_len ri + 1)
          else begin
            let ri = Vec.length run_pid in
            Vec.push run_pid pid;
            Vec.push run_off j;
            Vec.push run_len 1;
            Array.unsafe_set open_run h ri
          end
        end
      done;
      {
        li_idx = Vec.to_array idx;
        li_occ = Vec.to_array occ;
        li_run_pid = Vec.to_array run_pid;
        li_run_off = Vec.to_array run_off;
        li_run_len = Vec.to_array run_len;
        li_freq = freq;
      })

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
