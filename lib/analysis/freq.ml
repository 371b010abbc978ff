open Hotpath_cfg

let cp_cap = 0.98

(* Sweep budget of the irreducible fallback solver; with branch
   probabilities clamped to <= 0.99 the sweep-to-sweep contraction is
   at worst the largest cycle gain, so this is an explicit
   approximation, flagged as such (P113). *)
let max_sweeps = 200

let sweep_epsilon = 1e-10

type proc_freq = {
  g : Procgraph.t;
  bfreq : float array;  (* local index -> executions per invocation *)
  efreq : float array array;  (* aligned with [Procgraph.succ] *)
  cp : float array;  (* capped cyclic probability; 0 for non-heads *)
  is_head : bool array;
  capped : bool array;
  degraded : bool;
}

let local_exn g b = Procgraph.local g b

let block_freq t b = t.bfreq.(local_exn t.g b)

let succ_index t u gdst =
  let su = Procgraph.succ t.g u in
  let rec find i =
    if i >= Array.length su then
      invalid_arg
        (Printf.sprintf "Freq.edge_freq: %d -> %d is not an edge"
           (Procgraph.global t.g u) gdst)
    else if Procgraph.global t.g su.(i) = gdst then i
    else find (i + 1)
  in
  find 0

let edge_freq t ~src ~dst =
  let u = local_exn t.g src in
  t.efreq.(u).(succ_index t u dst)

let cyclic_prob t b =
  let u = local_exn t.g b in
  if t.is_head.(u) then Some t.cp.(u) else None

let capped_heads t =
  let acc = ref [] in
  for u = Array.length t.capped - 1 downto 0 do
    if t.capped.(u) then acc := Procgraph.global t.g u :: !acc
  done;
  !acc

let proc_degraded t = t.degraded

(* Index of local successor [v] in [succ g u] — the pre-[t] version of
   [succ_index] for use during analysis. *)
let succ_index_local g u v =
  let su = Procgraph.succ g u in
  let rec find i =
    if i >= Array.length su then assert false
    else if su.(i) = v then i
    else find (i + 1)
  in
  find 0

let analyze_proc g loops heur =
  let n = Procgraph.size g in
  let probs =
    Array.init n (fun u ->
        let sp = Heuristics.succ_probs heur (Procgraph.global g u) in
        Array.map
          (fun v ->
             match List.assoc_opt (Procgraph.global g v) sp with
             | Some pr -> pr
             | None -> assert false (* same dedup'd successor set *))
          (Procgraph.succ g u))
  in
  (* (pred, edge index in pred's succ array) per block. *)
  let incoming = Array.make n [] in
  for u = 0 to n - 1 do
    Array.iteri
      (fun i v -> incoming.(v) <- (u, i) :: incoming.(v))
      (Procgraph.succ g u)
  done;
  let back = Hashtbl.create 16 in
  let is_head = Array.make n false in
  List.iter
    (fun (l : Loops.loop) ->
       is_head.(Procgraph.local g l.Loops.head) <- true;
       List.iter
         (fun (t, h) ->
            Hashtbl.replace back (Procgraph.local g t, Procgraph.local g h) ())
         l.Loops.back_edges)
    (Loops.loops loops);
  let is_back u v = Hashtbl.mem back (u, v) in
  let bfreq = Array.make n 0.0 in
  let efreq = Array.map (fun ps -> Array.make (Array.length ps) 0.0) probs in
  let cp = Array.make n 0.0 in
  let capped = Array.make n false in
  let reachable = Procgraph.reachable g in
  let degraded = not (Loops.reducible loops) in
  let set_out u =
    Array.iteri (fun i pr -> efreq.(u).(i) <- pr *. bfreq.(u)) probs.(u)
  in
  if degraded then begin
    (* Irreducible: bounded Gauss–Seidel over the full linear system,
       all edges included.  Approximate by construction; the procedure
       is reported degraded and lint surfaces it as P113. *)
    let entry = Procgraph.entry g in
    let sweep () =
      let delta = ref 0.0 in
      for u = 0 to n - 1 do
        if reachable.(u) then begin
          let f = ref (if u = entry then 1.0 else 0.0) in
          List.iter
            (fun (p, i) -> f := !f +. (probs.(p).(i) *. bfreq.(p)))
            incoming.(u);
          delta := Float.max !delta (Float.abs (!f -. bfreq.(u)));
          bfreq.(u) <- !f
        end
      done;
      !delta
    in
    let rec run s = if s < max_sweeps && sweep () > sweep_epsilon then run (s + 1) in
    run 0;
    for u = 0 to n - 1 do
      set_out u
    done
  end
  else begin
    (* Reverse post-order of the graph minus dominance back edges —
       acyclic for reducible procedures, so a single in-order walk has
       every (non-back) predecessor ready. *)
    let rpo =
      let seen = Array.make n false in
      let post = ref [] in
      let entry = Procgraph.entry g in
      let stack = ref [ (entry, ref 0) ] in
      seen.(entry) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (u, i) :: rest ->
          let su = Procgraph.succ g u in
          if !i < Array.length su then begin
            let v = su.(!i) in
            incr i;
            if (not (is_back u v)) && not seen.(v) then begin
              seen.(v) <- true;
              stack := (v, ref 0) :: !stack
            end
          end
          else begin
            stack := rest;
            post := u :: !post
          end
      done;
      !post
    in
    (* One pass: compute member frequencies relative to [freq head =
       head_f], refreshing outgoing edge flows; [stamp] distinguishes
       this pass's flows from stale ones. *)
    let mark = Array.make n 0 in
    let pass = ref 0 in
    let run_pass ~members ~head ~head_f =
      incr pass;
      List.iter (fun u -> mark.(u) <- !pass) members;
      List.iter
        (fun u ->
           if mark.(u) = !pass then begin
             (if u = head then bfreq.(u) <- head_f
              else begin
                let inflow = ref 0.0 in
                List.iter
                  (fun (p, i) ->
                     if mark.(p) = !pass && not (is_back p u) then
                       inflow := !inflow +. efreq.(p).(i))
                  incoming.(u);
                bfreq.(u) <-
                  (if is_head.(u) then !inflow /. (1.0 -. cp.(u)) else !inflow)
              end);
             set_out u
           end)
        rpo
    in
    (* Innermost-first: each loop pass freezes its head's cyclic
       probability before any enclosing pass reads it. *)
    let by_depth =
      List.sort
        (fun (a : Loops.loop) (b : Loops.loop) ->
           compare (b.Loops.depth, a.Loops.head) (a.Loops.depth, b.Loops.head))
        (Loops.loops loops)
    in
    List.iter
      (fun (l : Loops.loop) ->
         let h = Procgraph.local g l.Loops.head in
         run_pass
           ~members:(List.map (Procgraph.local g) l.Loops.blocks)
           ~head:h ~head_f:1.0;
         let raw =
           List.fold_left
             (fun acc (t, hd) ->
                let tl = Procgraph.local g t in
                acc +. efreq.(tl).(succ_index_local g tl (Procgraph.local g hd)))
             0.0 l.Loops.back_edges
         in
         capped.(h) <- raw > cp_cap;
         cp.(h) <- Float.min cp_cap raw)
      by_depth;
    let entry = Procgraph.entry g in
    let entry_f = if is_head.(entry) then 1.0 /. (1.0 -. cp.(entry)) else 1.0 in
    run_pass ~members:rpo ~head:entry ~head_f:entry_f
  end;
  { g; bfreq; efreq; cp; is_head; capped; degraded }

(* ------------------------------------------------------------------ *)

type t = {
  prog : Cfg.program;
  pfs : proc_freq array;
  inv : float array;
  recursion_capped : bool;
  heads : (Cfg.block_id * float) list;
}

let program t = t.prog

let of_proc t pid =
  if pid < 0 || pid >= Array.length t.pfs then
    invalid_arg (Printf.sprintf "Freq.of_proc: no procedure %d" pid);
  t.pfs.(pid)

let invocation_freq t pid =
  if pid < 0 || pid >= Array.length t.inv then
    invalid_arg (Printf.sprintf "Freq.invocation_freq: no procedure %d" pid);
  t.inv.(pid)

let global_freq t b =
  let pid = (Cfg.block t.prog b).Cfg.proc in
  t.inv.(pid) *. block_freq t.pfs.(pid) b

let degraded_procs t =
  let acc = ref [] in
  for pid = Array.length t.pfs - 1 downto 0 do
    if t.pfs.(pid).degraded then acc := pid :: !acc
  done;
  !acc

let recursion_capped t = t.recursion_capped

let ranked_heads t = t.heads

(* Invocation frequencies over the call graph: closed form in
   topological order when acyclic; otherwise bounded iteration with an
   explicit cap — gain-above-one recursion diverges in reality too. *)
let inv_cap = 1e15

let inv_sweeps = 32

let solve_invocations prog pfs =
  let np = Cfg.num_procs prog in
  let out = Array.make np [] in
  List.iter
    (fun (site, callee, _) ->
       let caller = (Cfg.block prog site).Cfg.proc in
       let w = block_freq pfs.(caller) site in
       out.(caller) <- (callee, w) :: out.(caller))
    (Cfg.call_sites prog);
  let base = Array.make np 0.0 in
  base.(prog.Cfg.main) <- 1.0;
  let indeg = Array.make np 0 in
  Array.iter (List.iter (fun (q, _) -> indeg.(q) <- indeg.(q) + 1)) out;
  let queue = Queue.create () in
  Array.iteri (fun pid d -> if d = 0 then Queue.add pid queue) indeg;
  let topo = ref [] and visited = ref 0 in
  while not (Queue.is_empty queue) do
    let pid = Queue.pop queue in
    incr visited;
    topo := pid :: !topo;
    List.iter
      (fun (q, _) ->
         indeg.(q) <- indeg.(q) - 1;
         if indeg.(q) = 0 then Queue.add q queue)
      out.(pid)
  done;
  if !visited = np then begin
    let inv = Array.copy base in
    List.iter
      (fun pid ->
         List.iter
           (fun (q, w) -> inv.(q) <- inv.(q) +. (inv.(pid) *. w))
           out.(pid))
      (List.rev !topo);
    (inv, false)
  end
  else begin
    let inv = Array.copy base in
    for _ = 1 to inv_sweeps do
      let acc = Array.copy base in
      Array.iteri
        (fun pid edges ->
           List.iter
             (fun (q, w) ->
                acc.(q) <- Float.min inv_cap (acc.(q) +. (inv.(pid) *. w)))
             edges)
        out;
      Array.blit acc 0 inv 0 np
    done;
    (inv, true)
  end

let estimate prog =
  let pfs =
    Array.init (Cfg.num_procs prog) (fun pid ->
        let g = Procgraph.build prog ~proc:pid in
        let loops = Loops.analyze (Dominators.compute g) in
        analyze_proc g loops (Heuristics.analyze g loops))
  in
  let inv, recursion_capped = solve_invocations prog pfs in
  let t0 = { prog; pfs; inv; recursion_capped; heads = [] } in
  let heads =
    Bounds.full_heads (Bounds.static_heads prog)
    |> List.map (fun h -> (h, global_freq t0 h))
    |> List.sort (fun (ha, fa) (hb, fb) -> compare (fb, ha) (fa, hb))
  in
  { t0 with heads }

(* Schemes call [create] once per delay lane on the same loaded
   program; the estimate is pure, so share it by physical identity.
   Entries are ephemerons keyed on the program: an estimate lives only
   as long as its program, so programs dropped by their owner do not
   pin their estimates here.  The bound is sized so a figure run's
   working set fits — the nine suite programs, plus headroom for the
   phased demo and Figure 1 programs; at 8 the ninth benchmark evicted
   the first, and every later pass over the suite re-estimated
   [static] from scratch. *)
let cache_lock = Mutex.create ()

let cache : (Cfg.program, t) Ephemeron.K1.t list ref = ref []

let cache_limit = 16

let cached prog =
  Mutex.protect cache_lock (fun () ->
      match List.find_map (fun e -> Ephemeron.K1.query e prog) !cache with
      | Some t -> t
      | None ->
        let t = estimate prog in
        cache :=
          Ephemeron.K1.make prog t
          :: List.filteri (fun i _ -> i < cache_limit - 1) !cache;
        t)
