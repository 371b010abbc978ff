module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm

type t = {
  weights : int array;  (* block weight by id *)
  mutable head : Cfg.block_id;
  mutable n_branches : int;
  mutable bits : int;
  mutable indirect_hash : int;
  mutable indirect_buf : Cfg.block_id array;
  mutable n_indirects : int;
  mutable block_buf : Cfg.block_id array;
  mutable n_blocks : int;
  mutable n_instrs : int;
  mutable arrival : Path.head_kind;
  mutable end_kind : Path.end_kind;
  mutable calls_on_path : int;
  mutable next_head : Cfg.block_id;  (* -1 unless a path just completed *)
  mutable next_arrival : Path.head_kind;
  mutable exited : bool;
}

let start t head arrival =
  t.head <- head;
  t.n_branches <- 0;
  t.bits <- 0;
  t.indirect_hash <- 0;
  t.n_indirects <- 0;
  t.block_buf.(0) <- head;
  t.n_blocks <- 1;
  t.n_instrs <- t.weights.(head);
  t.arrival <- arrival;
  t.calls_on_path <- 0;
  t.next_head <- -1

let create program =
  let t =
    {
      weights = Array.map (fun b -> b.Cfg.weight) program.Cfg.blocks;
      head = -1;
      n_branches = 0;
      bits = 0;
      indirect_hash = 0;
      indirect_buf = Array.make 8 0;
      n_indirects = 0;
      block_buf = Array.make 64 0;
      n_blocks = 0;
      n_instrs = 0;
      arrival = Path.Entry;
      end_kind = Path.Program_end;
      calls_on_path = 0;
      next_head = -1;
      next_arrival = Path.Entry;
      exited = false;
    }
  in
  start t (Cfg.entry_block program) Path.Entry;
  t

let grow a n =
  let b = Array.make (2 * n) 0 in
  Array.blit a 0 b 0 n;
  b

let add_indirect t target =
  if t.n_indirects = Array.length t.indirect_buf then
    t.indirect_buf <- grow t.indirect_buf t.n_indirects;
  t.indirect_buf.(t.n_indirects) <- target;
  t.n_indirects <- t.n_indirects + 1;
  t.indirect_hash <- Signature.mix_indirect t.indirect_hash target

let add_block t b =
  if t.n_blocks = Array.length t.block_buf then
    t.block_buf <- grow t.block_buf t.n_blocks;
  t.block_buf.(t.n_blocks) <- b;
  t.n_blocks <- t.n_blocks + 1;
  t.n_instrs <- t.n_instrs + t.weights.(b)

(* End the current path; it stays readable until the next [feed], which
   first starts the path at [dst] ([-1]: the program exited). *)
let complete t end_kind (vm : Vm.t) =
  t.end_kind <- end_kind;
  let dst = vm.Vm.dst in
  if dst < 0 then t.exited <- true
  else begin
    t.next_head <- dst;
    t.next_arrival <- (if vm.Vm.backward then Path.Loop_head else Path.Continuation)
  end;
  true

let feed t (vm : Vm.t) =
  if t.exited then invalid_arg "Segmenter.feed: program already exited";
  if t.next_head >= 0 then start t t.next_head t.next_arrival;
  match vm.Vm.kind with
  | Vm.T_exit -> complete t Path.Program_end vm
  | Vm.T_branch ->
    if vm.Vm.taken then t.bits <- t.bits lor (1 lsl t.n_branches);
    t.n_branches <- t.n_branches + 1;
    if vm.Vm.backward then complete t Path.Backward_transfer vm
    else if t.n_branches = Signature.max_branches then complete t Path.Cap vm
    else begin
      add_block t vm.Vm.dst;
      false
    end
  | Vm.T_indirect ->
    add_indirect t vm.Vm.dst;
    if vm.Vm.backward then complete t Path.Backward_transfer vm
    else begin
      add_block t vm.Vm.dst;
      false
    end
  | Vm.T_call ->
    t.calls_on_path <- t.calls_on_path + 1;
    if vm.Vm.backward then complete t Path.Backward_transfer vm
    else begin
      add_block t vm.Vm.dst;
      false
    end
  | Vm.T_return ->
    let matched = t.calls_on_path > 0 in
    if matched then t.calls_on_path <- t.calls_on_path - 1;
    if vm.Vm.backward then complete t Path.Backward_transfer vm
    else if matched then complete t Path.Matched_return vm
    else begin
      (* A crossed (forward, unmatched) return is an indirect branch: its
         dynamic target disambiguates paths from shared callees. *)
      add_indirect t vm.Vm.dst;
      add_block t vm.Vm.dst;
      false
    end
  | Vm.T_jump ->
    if vm.Vm.backward then complete t Path.Backward_transfer vm
    else begin
      add_block t vm.Vm.dst;
      false
    end

let next t vm ~max_steps =
  let completed = ref false in
  while (not !completed) && vm.Vm.executed < max_steps && Vm.step vm do
    completed := feed t vm
  done;
  !completed

let in_flight_blocks t =
  if t.exited then 0 else if t.next_head >= 0 then 1 else t.n_blocks

let blocks t = Array.sub t.block_buf 0 t.n_blocks

let indirects t = List.init t.n_indirects (fun i -> t.indirect_buf.(i))

let signature t =
  Signature.make ~head:t.head ~length:t.n_branches ~bits:t.bits
    ~indirects:(indirects t)
