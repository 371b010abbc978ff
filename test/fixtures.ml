(* Shared miniature programs for the test suites. *)

module Cfg = Hotpath_cfg.Cfg
module Behavior = Hotpath_vm.Behavior

(* A single natural loop:

     B0 entry --jump--> B1 head
     B1 head  --jump--> B2 body
     B2 body  --branch: taken -> B1 (backward), fall -> B3
     B3 exit

   [iterations] controls how many times the back edge is taken per visit via
   a Periodic model: taken (iterations-1) times, then not taken. *)
let simple_loop ?(iterations = 3) () =
  let b = Cfg.Builder.create ~name:"simple_loop" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:2 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:3 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:5 in
  let b3 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Jump b1);
  Cfg.Builder.set_term b b1 (Cfg.Jump b2);
  Cfg.Builder.set_term b b2 (Cfg.Branch { taken = b1; fallthrough = b3 });
  Cfg.Builder.set_term b b3 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let behavior = Behavior.create program () in
  let pattern = Array.init iterations (fun i -> i < iterations - 1) in
  Behavior.set_branch behavior b2 (Behavior.Periodic pattern);
  (program, behavior, (b0, b1, b2, b3))

(* A loop whose body calls a straight-line helper.  The helper is laid out
   *between* the call site and the return-to block, so both the call
   (B2 -> B3) and the matched return (B4 -> B5) are forward transfers —
   the path through the call ends at the matched return (the paper's
   Matched_return end kind):

     main:   B0 entry -> B1 head -> B2 (call helper, returns to B5)
     helper: B3 -> B4 (return)
     main:   B5 --branch: taken -> B1 (backward), fall -> B6 exit *)
let call_loop ?(iterations = 4) () =
  let b = Cfg.Builder.create ~name:"call_loop" in
  let main = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:main ~weight:2 in
  let b2 = Cfg.Builder.add_block b ~proc:main ~weight:2 in
  let helper = Cfg.Builder.add_proc b ~name:"helper" in
  let b3 = Cfg.Builder.add_block b ~proc:helper ~weight:4 in
  let b4 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b5 = Cfg.Builder.add_block b ~proc:main ~weight:2 in
  let b6 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Jump b1);
  Cfg.Builder.set_term b b1 (Cfg.Jump b2);
  Cfg.Builder.set_term b b2 (Cfg.Call { callee = helper; return_to = b5 });
  Cfg.Builder.set_term b b3 (Cfg.Jump b4);
  Cfg.Builder.set_term b b4 Cfg.Return;
  Cfg.Builder.set_term b b5 (Cfg.Branch { taken = b1; fallthrough = b6 });
  Cfg.Builder.set_term b b6 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let behavior = Behavior.create program () in
  let pattern = Array.init iterations (fun i -> i < iterations - 1) in
  Behavior.set_branch behavior b5 (Behavior.Periodic pattern);
  (program, behavior, (b0, b1, b2, b3, b4, b5, b6))

(* Self-recursion: main calls [rec_proc]; rec_proc at B2 branches — taken:
   recurse (the call at B3 targets rec_proc whose entry B2 <= B3, hence a
   backward call), fallthrough: return.  The paper's path definition
   captures such recursive loops without unfolding. *)
let recursive ?(depth = 3) () =
  let b = Cfg.Builder.create ~name:"recursive" in
  let main = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let rp = Cfg.Builder.add_proc b ~name:"rec" in
  let b2 = Cfg.Builder.add_block b ~proc:rp ~weight:2 in
  let b3 = Cfg.Builder.add_block b ~proc:rp ~weight:1 in
  let b4 = Cfg.Builder.add_block b ~proc:rp ~weight:1 in
  let b5 = Cfg.Builder.add_block b ~proc:rp ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Call { callee = rp; return_to = b1 });
  Cfg.Builder.set_term b b1 Cfg.Exit;
  Cfg.Builder.set_term b b2 (Cfg.Branch { taken = b3; fallthrough = b5 });
  Cfg.Builder.set_term b b3 (Cfg.Call { callee = rp; return_to = b4 });
  Cfg.Builder.set_term b b4 Cfg.Return;
  Cfg.Builder.set_term b b5 Cfg.Return;
  let program = Cfg.Builder.finish b in
  let behavior = Behavior.create program () in
  (* Recurse (depth-1) times then bottom out, repeatedly. *)
  let pattern = Array.init depth (fun i -> i < depth - 1) in
  Behavior.set_branch behavior b2 (Behavior.Periodic pattern);
  (program, behavior, (b0, b1, b2, b3, b4, b5))

(* A loop with an indirect dispatch in its body (switch-like):

     B0 -> B1 head -> B2 indirect -> {B3, B4} -> B5 branch back/exit *)
let indirect_loop ?(weights = [| 0.5; 0.5 |]) ?(exit_prob = 0.25) () =
  let b = Cfg.Builder.create ~name:"indirect_loop" in
  let p = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b1 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:p ~weight:2 in
  let b3 = Cfg.Builder.add_block b ~proc:p ~weight:3 in
  let b4 = Cfg.Builder.add_block b ~proc:p ~weight:3 in
  let b5 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  let b6 = Cfg.Builder.add_block b ~proc:p ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Jump b1);
  Cfg.Builder.set_term b b1 (Cfg.Jump b2);
  Cfg.Builder.set_term b b2 (Cfg.Indirect [| b3; b4 |]);
  Cfg.Builder.set_term b b3 (Cfg.Jump b5);
  Cfg.Builder.set_term b b4 (Cfg.Jump b5);
  Cfg.Builder.set_term b b5 (Cfg.Branch { taken = b1; fallthrough = b6 });
  Cfg.Builder.set_term b b6 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let behavior = Behavior.create program () in
  Behavior.set_indirect behavior b2 (Behavior.Weighted_target weights);
  Behavior.set_branch behavior b5 (Behavior.Bias (1.0 -. exit_prob));
  (program, behavior, (b0, b1, b2, b3, b4, b5, b6))

(* A loop inside a callee laid out before its caller's return-to block,
   so paths that start at the callee's loop head cross a forward,
   unmatched return:

     B0 main  --call helper, return to B4
     B1 head  --jump--> B2
     B2 latch --branch: taken -> B1 (backward), fall -> B3
     B3       --return (forward, to B4)
     B4 main  --jump--> B5
     B5 exit

   The latch alternates taken / not taken ([Periodic]). *)
let callee_loop () =
  let b = Cfg.Builder.create ~name:"callee_loop" in
  let main = Cfg.Builder.add_proc b ~name:"main" in
  let b0 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let helper = Cfg.Builder.add_proc b ~name:"helper" in
  let b1 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b2 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b3 = Cfg.Builder.add_block b ~proc:helper ~weight:1 in
  let b4 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  let b5 = Cfg.Builder.add_block b ~proc:main ~weight:1 in
  Cfg.Builder.set_term b b0 (Cfg.Call { callee = helper; return_to = b4 });
  Cfg.Builder.set_term b b1 (Cfg.Jump b2);
  Cfg.Builder.set_term b b2 (Cfg.Branch { taken = b1; fallthrough = b3 });
  Cfg.Builder.set_term b b3 Cfg.Return;
  Cfg.Builder.set_term b b4 (Cfg.Jump b5);
  Cfg.Builder.set_term b b5 Cfg.Exit;
  let program = Cfg.Builder.finish b in
  let behavior = Behavior.create program () in
  Behavior.set_branch behavior b2 (Behavior.Periodic [| true; false |]);
  (program, behavior, (b0, b1, b2, b3, b4, b5))
