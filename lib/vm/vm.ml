module Cfg = Hotpath_cfg.Cfg

type transfer_kind = T_branch | T_jump | T_indirect | T_call | T_return | T_exit

type t = {
  program : Cfg.program;
  decider : Behavior.Decider.t;
  max_stack : int;
  mutable stack : Cfg.block_id array;  (* return-to blocks, [0, depth) *)
  mutable depth : int;
  mutable current : Cfg.block_id;
  mutable executed : int;
  mutable src : Cfg.block_id;
  mutable kind : transfer_kind;
  mutable taken : bool;
  mutable dst : Cfg.block_id;
  mutable backward : bool;
  mutable branches : int;
  mutable calls : int;
  mutable returns : int;
  mutable indirects : int;
  mutable backward_transfers : int;
  mutable max_depth : int;
}

type transfer = {
  src : Cfg.block_id;
  kind : transfer_kind;
  taken : bool;
  dst : Cfg.block_id option;
  backward : bool;
}

let create ?(max_stack = 10_000) program behavior ~rng =
  (match Cfg.validate program with
   | Ok () -> ()
   | Error e -> invalid_arg ("Vm.create: invalid program: " ^ e));
  (match Behavior.validate behavior with
   | Ok () -> ()
   | Error e -> invalid_arg ("Vm.create: invalid behavior: " ^ e));
  {
    program;
    decider = Behavior.Decider.create behavior ~rng;
    max_stack;
    stack = Array.make 16 0;
    depth = 0;
    current = Cfg.entry_block program;
    executed = 0;
    src = -1;
    kind = T_exit;
    taken = false;
    dst = -1;
    backward = false;
    branches = 0;
    calls = 0;
    returns = 0;
    indirects = 0;
    backward_transfers = 0;
    max_depth = 0;
  }

let blocks_executed t = t.executed

let stack_depth t = t.depth

let push_return t return_to =
  if t.depth >= t.max_stack then
    failwith
      (Printf.sprintf "Vm.step: call-stack overflow (depth %d) at block %d"
         t.max_stack t.src);
  if t.depth = Array.length t.stack then begin
    let grown = Array.make (2 * t.depth) 0 in
    Array.blit t.stack 0 grown 0 t.depth;
    t.stack <- grown
  end;
  t.stack.(t.depth) <- return_to;
  t.depth <- t.depth + 1;
  if t.depth > t.max_depth then t.max_depth <- t.depth

(* Record the transfer just performed and move to its destination
   ([-1] on exit).  Block ids are addresses ([Cfg.is_backward]); the
   comparison is written out because this runs once per block. *)
let land_at (t : t) kind ~taken dst =
  t.kind <- kind;
  t.taken <- taken;
  t.dst <- dst;
  t.current <- dst;
  let backward = dst >= 0 && dst <= t.src in
  t.backward <- backward;
  if backward then t.backward_transfers <- t.backward_transfers + 1

let step (t : t) =
  let src = t.current in
  if src < 0 then false
  else begin
    let step = t.executed + 1 in
    t.executed <- step;
    t.src <- src;
    (match t.program.Cfg.blocks.(src).Cfg.term with
     | Cfg.Branch { taken; fallthrough } ->
       let outcome = Behavior.Decider.decide_branch t.decider src ~step in
       t.branches <- t.branches + 1;
       land_at t T_branch ~taken:outcome (if outcome then taken else fallthrough)
     | Cfg.Jump dst -> land_at t T_jump ~taken:false dst
     | Cfg.Indirect targets ->
       t.indirects <- t.indirects + 1;
       land_at t T_indirect ~taken:false
         (Behavior.Decider.decide_indirect t.decider src ~targets ~step)
     | Cfg.Call { callee; return_to } ->
       push_return t return_to;
       t.calls <- t.calls + 1;
       land_at t T_call ~taken:false t.program.Cfg.procs.(callee).Cfg.entry
     | Cfg.Return ->
       if t.depth = 0 then land_at t T_exit ~taken:false (-1)
       else begin
         t.depth <- t.depth - 1;
         t.returns <- t.returns + 1;
         land_at t T_return ~taken:false t.stack.(t.depth)
       end
     | Cfg.Exit -> land_at t T_exit ~taken:false (-1));
    true
  end

let transfer (t : t) =
  {
    src = t.src;
    kind = t.kind;
    taken = t.taken;
    dst = (if t.dst < 0 then None else Some t.dst);
    backward = t.backward;
  }

type run_stats = {
  reason : [ `Exited | `Fuel ];
  blocks : int;
  branches : int;
  calls : int;
  returns : int;
  indirects : int;
  backward_transfers : int;
  max_stack : int;
}

let pp_run_stats ppf s =
  Format.fprintf ppf
    "@[<h>%s: blocks=%d branches=%d calls=%d returns=%d indirects=%d backward=%d \
     max_stack=%d@]"
    (match s.reason with `Exited -> "exited" | `Fuel -> "fuel")
    s.blocks s.branches s.calls s.returns s.indirects s.backward_transfers s.max_stack

let stats t =
  {
    reason = (if t.current < 0 then `Exited else `Fuel);
    blocks = t.executed;
    branches = t.branches;
    calls = t.calls;
    returns = t.returns;
    indirects = t.indirects;
    backward_transfers = t.backward_transfers;
    max_stack = t.max_depth;
  }

let run ?(max_steps = max_int) t ~on_transfer =
  let rec loop () =
    if t.executed >= max_steps then `Fuel
    else if step t then begin
      on_transfer (transfer t);
      loop ()
    end
    else `Exited
  in
  let reason = loop () in
  { (stats t) with reason }
