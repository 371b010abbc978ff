module Kpath = Hotpath_trace.Kpath
module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Batch = Hotpath_trace.Batch
module Lint = Hotpath_trace.Lint
module Diag = Hotpath_analysis.Diag
module Cfg = Hotpath_cfg.Cfg
module Vec = Hotpath_util.Vec
module Events = Hotpath_util.Events

type prediction = { target : int; at_instance : int }

type outcome = {
  scheme_name : string;
  delay : int;
  total_instances : int;
  predictions : prediction array;
  predicted_at : int array;
  freq : int array;
  captured : int array;
  profiled_instances : int;
  captured_instances : int;
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

type events = {
  ev_sink : Events.sink;
  ev_window : int;
  ev_is_hot : (int -> bool) option;
}

(* The replay loop runs at a handful of ns per instance, so a sample
   window must amortize a ~µs JSON line over enough instances to keep
   the enabled overhead under the bench's 3% budget. *)
let default_events_window = 32_768

let events ?(window = default_events_window) ?is_hot sink =
  if window < 1 then invalid_arg "Replay.events: window must be >= 1";
  { ev_sink = sink; ev_window = window; ev_is_hot = is_hot }

(* A null-sink events value is "disabled": callers may thread a sink
   unconditionally and still pay nothing when it is the null one. *)
let live = function
  | Some e when Events.is_null e.ev_sink -> None
  | ev -> ev

(* Per-lane window sampling.  All sampling work happens at window
   boundaries — [Engine.walk] cuts the kernel's slices there, so events
   add nothing per instance — and nothing here feeds back into the
   replay state, so outcomes are byte-identical with events on and off
   (property-tested). *)
module Sampler = struct
  type lane = { mutable hw : int; mutable seq : int; mutable last_upto : int }

  type t = {
    ev : events;
    scheme : string;
    delays : int array;
    lanes : lane array;
    c_windows : Events.Registry.counter;
    c_instances : Events.Registry.counter;
  }

  let create ev ~scheme ~delays =
    {
      ev;
      scheme;
      delays;
      lanes = Array.map (fun _ -> { hw = 0; seq = 0; last_upto = 0 }) delays;
      c_windows = Events.Registry.counter "replay.windows";
      c_instances = Events.Registry.counter "replay.instances";
    }

  (* Cumulative hits/noise so far are read off the captured array — the
     operational definition restricted to the instances seen so far —
     rather than tracked per instance, keeping the hot loop untouched. *)
  let sample t l ~upto ~n_paths ~captured_arr ~predictions ~profiled
      ~captured_total ~counter_space ~profiling_ops ~collection_ops =
    let lane = t.lanes.(l) in
    if counter_space > lane.hw then lane.hw <- counter_space;
    let hits, noise =
      match t.ev.ev_is_hot with
      | None -> (None, None)
      | Some is_hot ->
        let h = ref 0 and nz = ref 0 in
        for pid = 0 to n_paths - 1 do
          let c = captured_arr.(pid) in
          if c > 0 then if is_hot pid then h := !h + c else nz := !nz + c
        done;
        (Some !h, Some !nz)
    in
    Events.replay_window t.ev.ev_sink ~scheme:t.scheme ~delay:t.delays.(l)
      ~seq:lane.seq ~upto
      ~instances:(upto - lane.last_upto)
      ~predictions ~profiled ~captured:captured_total ~profiling_ops
      ~collection_ops ~counter_space ~counter_space_hw:lane.hw ?hits ?noise ();
    Events.Registry.incr t.c_windows;
    Events.Registry.add t.c_instances (upto - lane.last_upto);
    lane.seq <- lane.seq + 1;
    lane.last_upto <- upto

  (* The final (possibly short) window: every lane always gets at least
     one sample, and the last sample's cumulative fields equal the
     outcome's totals — the invariant the differential suite checks. *)
  let final t l ~upto ~n_paths ~captured_arr ~predictions ~profiled
      ~captured_total ~counter_space ~profiling_ops ~collection_ops =
    let lane = t.lanes.(l) in
    if lane.last_upto < upto || lane.seq = 0 then
      sample t l ~upto ~n_paths ~captured_arr ~predictions ~profiled
        ~captured_total ~counter_space ~profiling_ops ~collection_ops
end

(* ------------------------------------------------------------------ *)
(* Lane state                                                          *)
(* ------------------------------------------------------------------ *)

(* The state every scheme kernel shares.  Per lane (one per delay): the
   predicted-at marks, captured counts, accepted predictions, and the
   profiled/captured totals.  Per path: the frequency and the
   descriptors the loops read (head block, branch count, block count).
   Per-path arrays grow as the path table declares paths, so a session
   over a growing stream and a replay of a finished recording hold the
   same state. *)
type lanes = {
  delays : int array;
  mutable np : int;  (* paths synced from the table *)
  mutable heads : int array;
  mutable branches : int array;
  mutable blocks : int array;
  mutable freq : int array;
  pa : int array array;  (* per lane, per path: predicted-at or max_int *)
  cap : int array array;  (* per lane, per path: captured instances *)
  preds : prediction Vec.t array;
  profiled : int array;
  cap_total : int array;
  on_predict : (delay:int -> target:int -> at_instance:int -> unit) option;
}

(* Record lane [l]'s accepted prediction of [target] at instance [at];
   [pa] is the lane's predicted-at array. *)
let accept ln l pa ~target ~at =
  Array.unsafe_set pa target at;
  Vec.push ln.preds.(l) { target; at_instance = at };
  match ln.on_predict with
  | None -> ()
  | Some f -> f ~delay:ln.delays.(l) ~target ~at_instance:at

(* A scheme kernel replays slices of the instance stream over [lanes]:
   [walk ids arrs off len base] walks instances [off, off + len) of the
   id array and arrival-code bytes, the first at global stream index
   [base].  All state carries across calls, so one call over [0, n) and
   many contiguous slices are the same computation.  [grow cap] extends
   per-path scheme state to [cap] paths; [stats l] is lane [l]'s
   (counter space, profiling ops, collection ops).

   The instance loops below are written out per kernel on purpose:
   without flambda nothing is inlined across a closure or functor, and
   the per-instance body is where all the time goes.  The
   [Array.unsafe_*] accesses rely on validation upstream — recording
   construction, the stream decoders, or the session gate: every id is
   a declared path and every head a program block. *)
type kernel = {
  walk : int array -> Bytes.t -> int -> int -> int -> unit;
  grow : int -> unit;
  stats : int -> int * int * int;
}

let kind_of_code = function
  | '\000' -> Path.Loop_head
  | '\001' -> Path.Entry
  | _ -> Path.Continuation

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The generic walker: one [S.observe] call and one option per profiled
   instance per lane.  It runs every scheme without a kernel ([static],
   the kauto schemes, look-alikes), and it is the reference the kernels
   are tested against. *)
let generic (module S : Scheme.S) ~program ln =
  let states = Array.map (fun delay -> S.create ~delay ~program) ln.delays in
  let k = Array.length states in
  let walk ids arrs off len base =
    let heads = ln.heads and branches = ln.branches and blocks = ln.blocks in
    let freq = ln.freq and pa_l = ln.pa and cap_l = ln.cap in
    let profiled = ln.profiled and cap_total = ln.cap_total in
    let states = Sys.opaque_identity states and d = base - off in
    for j = off to off + len - 1 do
      let pid = ids.(j) and i = j + d in
      freq.(pid) <- freq.(pid) + 1;
      let head = heads.(pid)
      and n_branches = branches.(pid)
      and n_blocks = blocks.(pid)
      and arrival = kind_of_code (Bytes.get arrs j) in
      for l = 0 to k - 1 do
        let pa = pa_l.(l) in
        if pa.(pid) < i then begin
          let cap = cap_l.(l) in
          cap.(pid) <- cap.(pid) + 1;
          cap_total.(l) <- cap_total.(l) + 1
        end
        else begin
          profiled.(l) <- profiled.(l) + 1;
          match
            S.observe states.(l) ~head ~arrival ~path_id:pid ~n_branches
              ~n_blocks
          with
          | Some target when pa.(target) = max_int ->
            S.collect states.(l) ~n_blocks:blocks.(target);
            accept ln l pa ~target ~at:i
          | Some _ | None -> ()
        end
      done
    done
  in
  let stats l =
    let s = states.(l) in
    (S.counter_space s, S.profiling_ops s, S.collection_ops s)
  in
  { walk; grow = ignore; stats }

(* ------------------------------------------------------------------ *)
(* Kernels for the built-in schemes                                    *)
(* ------------------------------------------------------------------ *)

(* Each kernel inlines its scheme's logic into the lane loop and
   flattens the scheme's hashtable state into plain arrays over dense
   ids (block ids for NET, path ids for path-profile, trie node ids for
   path-profile-k): no call, no hashing and no option allocation per
   instance.  Each is property-tested bit-identical to the generic
   walker. *)

(* Net.state flattened: counts.(h) < 0 means "no counter yet" (hashtable
   absence), last_tail.(h) < 0 "no previous tail"; [seen] counts the
   counters ever allocated — NET's counter space. *)
type net_lane = {
  delay : int;
  counts : int array;
  mutable seen : int;
  retired : bool array;
  last_tail : int array;
  mutable ops : int;
  mutable collection : int;
}

(* [once]: Net_once (a head retires after its first prediction);
   [prev]: Last_executed_tail (predict the head's previous tail). *)
let net ~once:v_once ~prev:v_prev ~n_blocks ln =
  let states =
    Array.map
      (fun delay ->
         {
           delay;
           counts = Array.make n_blocks (-1);
           seen = 0;
           retired = (if v_once then Array.make n_blocks false else [||]);
           last_tail = (if v_prev then Array.make n_blocks (-1) else [||]);
           ops = 0;
           collection = 0;
         })
      ln.delays
  in
  let k = Array.length states in
  let walk ids arrs off len base =
    (* [opaque_identity] keeps the closure captures in locals instead of
       per-iteration environment reads — worth ~15% on this loop. *)
    let heads = ln.heads and blocks = ln.blocks and freq = ln.freq in
    let pa_l = ln.pa and cap_l = ln.cap in
    let profiled = ln.profiled and cap_total = ln.cap_total in
    let states = Sys.opaque_identity states
    and k = Sys.opaque_identity k
    and v_once = Sys.opaque_identity v_once
    and v_prev = Sys.opaque_identity v_prev
    and d = base - off in
    for j = off to off + len - 1 do
      let pid = Array.unsafe_get ids j and i = j + d in
      Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
      let is_loop_head = Bytes.unsafe_get arrs j = '\000' in
      let head = Array.unsafe_get heads pid in
      for l = 0 to k - 1 do
        let pa = pa_l.(l) in
        if Array.unsafe_get pa pid < i then begin
          let cap = cap_l.(l) in
          Array.unsafe_set cap pid (Array.unsafe_get cap pid + 1);
          cap_total.(l) <- cap_total.(l) + 1
        end
        else begin
          profiled.(l) <- profiled.(l) + 1;
          (* NET profiles only targets of backward taken transfers. *)
          if is_loop_head then begin
            let st = states.(l) in
            if not (v_once && Array.unsafe_get st.retired head) then begin
              st.ops <- st.ops + 1;
              let c0 = Array.unsafe_get st.counts head in
              let count =
                if c0 < 0 then begin
                  st.seen <- st.seen + 1;
                  1
                end
                else c0 + 1
              in
              if count < st.delay then begin
                Array.unsafe_set st.counts head count;
                if v_prev then Array.unsafe_set st.last_tail head pid
              end
              else begin
                (* Counter trips: re-arm and predict. *)
                Array.unsafe_set st.counts head 0;
                if v_once then Array.unsafe_set st.retired head true;
                let target =
                  if v_prev then begin
                    let prev = Array.unsafe_get st.last_tail head in
                    Array.unsafe_set st.last_tail head pid;
                    (* No history yet: fall back to the current tail. *)
                    if prev >= 0 then prev else pid
                  end
                  else pid
                in
                if Array.unsafe_get pa target = max_int then begin
                  (* Incremental instrumentation: one breakpoint per
                     block, charged on accepted predictions only. *)
                  st.collection <- st.collection + Array.unsafe_get blocks target;
                  accept ln l pa ~target ~at:i
                end
              end
            end
          end
        end
      done
    done
  in
  let stats l =
    let st = states.(l) in
    (st.seen, st.ops, st.collection)
  in
  { walk; grow = ignore; stats }

(* Path_profile.t flattened; absence and a zero count coincide, so
   [seen] (counter space) ticks on the 0 -> 1 transition. *)
type pp_lane = {
  delay : int;
  mutable counts : int array;
  mutable seen : int;
  mutable ops : int;
}

let path_profile ln =
  let states =
    Array.map (fun delay -> { delay; counts = [||]; seen = 0; ops = 0 }) ln.delays
  in
  let k = Array.length states in
  let walk ids _arrs off len base =
    let branches = ln.branches and freq = ln.freq in
    let pa_l = ln.pa and cap_l = ln.cap in
    let profiled = ln.profiled and cap_total = ln.cap_total in
    let states = Sys.opaque_identity states
    and k = Sys.opaque_identity k
    and d = base - off in
    for j = off to off + len - 1 do
      let pid = Array.unsafe_get ids j and i = j + d in
      Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
      let n_branches = Array.unsafe_get branches pid in
      for l = 0 to k - 1 do
        let pa = pa_l.(l) in
        if Array.unsafe_get pa pid < i then begin
          let cap = cap_l.(l) in
          Array.unsafe_set cap pid (Array.unsafe_get cap pid + 1);
          cap_total.(l) <- cap_total.(l) + 1
        end
        else begin
          profiled.(l) <- profiled.(l) + 1;
          let st = states.(l) in
          (* Bit tracing: one shift per branch, one table update. *)
          st.ops <- st.ops + n_branches + 1;
          let count = Array.unsafe_get st.counts pid + 1 in
          Array.unsafe_set st.counts pid count;
          if count = 1 then st.seen <- st.seen + 1;
          (* [>=] rather than [=]: a counter already past the threshold
             (code-cache flush scenarios) must re-predict immediately.
             Collection is free — path-profile already holds the path. *)
          if count >= st.delay && Array.unsafe_get pa pid = max_int then
            accept ln l pa ~target:pid ~at:i
        end
      done
    done
  in
  let grow cap =
    Array.iter (fun st -> st.counts <- extend st.counts cap 0) states
  in
  let stats l =
    let st = states.(l) in
    (st.seen, st.ops, 0)
  in
  { walk; grow; stats }

(* Path_profile_k.state with the suffix trie swapped for [Kpath.Flat]:
   a dense level-1 array plus an open-addressed int table for deeper
   children, allocating node ids in exactly the reference interner's
   order so counter registries and node-indexed counts stay
   bit-identical. *)
type ppk_lane = {
  delay : int;
  trie : Kpath.Flat.t;
  mutable counts : int array;
  mutable cur : int;
  mutable ops : int;
}

let path_profile_k k_iter ln =
  let states =
    Array.map
      (fun delay ->
         { delay; trie = Kpath.Flat.create ~k:k_iter; counts = Array.make 64 0;
           cur = Kpath.root; ops = 0 })
      ln.delays
  in
  let k = Array.length states in
  let walk ids arrs off len base =
    let branches = ln.branches and freq = ln.freq in
    let pa_l = ln.pa and cap_l = ln.cap in
    let profiled = ln.profiled and cap_total = ln.cap_total in
    let states = Sys.opaque_identity states
    and k = Sys.opaque_identity k
    and d = base - off in
    for j = off to off + len - 1 do
      let pid = Array.unsafe_get ids j and i = j + d in
      Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
      let n_branches = Array.unsafe_get branches pid in
      let arrival = kind_of_code (Bytes.unsafe_get arrs j) in
      for l = 0 to k - 1 do
        let pa = pa_l.(l) in
        if Array.unsafe_get pa pid < i then begin
          let cap = cap_l.(l) in
          Array.unsafe_set cap pid (Array.unsafe_get cap pid + 1);
          cap_total.(l) <- cap_total.(l) + 1
        end
        else begin
          profiled.(l) <- profiled.(l) + 1;
          let st = states.(l) in
          (* Bit tracing plus the window cursor ride-along. *)
          st.ops <- st.ops + n_branches + 1;
          let node = Kpath.Flat.advance st.trie ~cur:st.cur ~arrival ~pid in
          st.cur <- node;
          let len = Array.length st.counts in
          if node >= len then
            st.counts <- extend st.counts (max (node + 1) (2 * len)) 0;
          let counts = st.counts in
          let count = Array.unsafe_get counts node + 1 in
          Array.unsafe_set counts node count;
          if count >= st.delay && Array.unsafe_get pa pid = max_int then
            accept ln l pa ~target:pid ~at:i
        end
      done
    done
  in
  let stats l =
    let st = states.(l) in
    (Kpath.Flat.num_nodes st.trie - 1, st.ops, 0)
  in
  { walk; grow = ignore; stats }

(* Net_k.state with the head counter table flattened like [net]:
   counts.(h) < 0 means "no counter yet". *)
type netk_lane = {
  delay : int;
  counts : int array;
  mutable seen : int;
  mutable remaining : int;
  mutable ops : int;
  mutable collection : int;
}

let net_k k_iter ~n_blocks ln =
  let states =
    Array.map
      (fun delay ->
         { delay; counts = Array.make n_blocks (-1); seen = 0; remaining = 0;
           ops = 0; collection = 0 })
      ln.delays
  in
  let k = Array.length states in
  let walk ids arrs off len base =
    let heads = ln.heads and blocks = ln.blocks and freq = ln.freq in
    let pa_l = ln.pa and cap_l = ln.cap in
    let profiled = ln.profiled and cap_total = ln.cap_total in
    let states = Sys.opaque_identity states
    and k = Sys.opaque_identity k
    and d = base - off in
    for j = off to off + len - 1 do
      let pid = Array.unsafe_get ids j and i = j + d in
      Array.unsafe_set freq pid (Array.unsafe_get freq pid + 1);
      let is_loop_head = Bytes.unsafe_get arrs j = '\000' in
      let head = Array.unsafe_get heads pid in
      for l = 0 to k - 1 do
        let pa = pa_l.(l) in
        if Array.unsafe_get pa pid < i then begin
          let cap = cap_l.(l) in
          Array.unsafe_set cap pid (Array.unsafe_get cap pid + 1);
          cap_total.(l) <- cap_total.(l) + 1
        end
        else begin
          profiled.(l) <- profiled.(l) + 1;
          let st = states.(l) in
          if is_loop_head then begin
            st.ops <- st.ops + 1;
            let c0 = Array.unsafe_get st.counts head in
            let count =
              if c0 < 0 then begin
                st.seen <- st.seen + 1;
                1
              end
              else c0 + 1
            in
            let offer =
              if count >= st.delay then begin
                (* Trip: re-arm, predict, open (or restart) the window. *)
                Array.unsafe_set st.counts head 0;
                st.remaining <- k_iter - 1;
                true
              end
              else begin
                Array.unsafe_set st.counts head count;
                if st.remaining > 0 then begin
                  st.remaining <- st.remaining - 1;
                  true
                end
                else false
              end
            in
            if offer && Array.unsafe_get pa pid = max_int then begin
              st.collection <- st.collection + Array.unsafe_get blocks pid;
              accept ln l pa ~target:pid ~at:i
            end
          end
          else
            (* The back-edge chain broke: close the window. *)
            st.remaining <- 0
        end
      done
    done
  in
  let stats l =
    let st = states.(l) in
    (st.seen, st.ops, st.collection)
  in
  { walk; grow = ignore; stats }

(* ------------------------------------------------------------------ *)
(* Engines: a kernel, its lanes, and the event windows                 *)
(* ------------------------------------------------------------------ *)

module Engine = struct
  type builtin =
    | Net_rearm
    | Net_once
    | Net_prev
    | Path_profile
    | Path_profile_k of int
    | Net_k of int

  (* A packed module is recognized as a built-in by the physical
     identity of its [observe] closure — allocated once at scheme-module
     init and preserved by signature coercions, which copy module blocks
     but never wrap value fields.  The k-families share one [observe]
     across every k, so they are keyed on [create] instead.  [Obj.repr]
     only erases the state-type difference for the pointer comparison.
     Look-alikes that merely reuse a built-in's name or fields through a
     fresh closure are not recognized and run the generic walker. *)
  let same_fn f g = Obj.repr f == Obj.repr g

  let builtin (module S : Scheme.S) =
    if same_fn S.observe Net.observe then Some Net_rearm
    else if same_fn S.observe Net.Net_once.observe then Some Net_once
    else if same_fn S.observe Net.Last_executed_tail.observe then Some Net_prev
    else if same_fn S.observe Path_profile.observe then Some Path_profile
    else
      match Path_profile_k.recognize (module S) with
      | Some k -> Some (Path_profile_k k)
      | None -> Option.map (fun k -> Net_k k) (Net_k.recognize (module S))

  let kernel (module S : Scheme.S) ~program ln =
    let n_blocks = Array.length program.Cfg.blocks in
    match builtin (module S) with
    | None -> generic (module S) ~program ln
    | Some b -> (
      (* The kernels do not re-validate delays; keep each scheme's own
         validation (and exception message) for the invalid ones. *)
      Array.iter
        (fun d -> if d < 1 then ignore (S.create ~delay:d ~program))
        ln.delays;
      match b with
      | Net_rearm -> net ~once:false ~prev:false ~n_blocks ln
      | Net_once -> net ~once:true ~prev:false ~n_blocks ln
      | Net_prev -> net ~once:false ~prev:true ~n_blocks ln
      | Path_profile -> path_profile ln
      | Path_profile_k k -> path_profile_k k ln
      | Net_k k -> net_k k ~n_blocks ln)

  type t = {
    scheme : string;
    table : Path_table.t;
    lanes : lanes;
    kern : kernel;
    sampler : Sampler.t option;
    window : int;
    mutable next_sample : int;
    mutable total : int;
  }

  let create ?events:ev ?on_predict (module S : Scheme.S) ~delays ~program
      ~table =
    let k = Array.length delays in
    let lanes =
      {
        delays;
        np = 0;
        heads = [||];
        branches = [||];
        blocks = [||];
        freq = [||];
        pa = Array.make k [||];
        cap = Array.make k [||];
        preds = Array.init k (fun _ -> Vec.create ());
        profiled = Array.make k 0;
        cap_total = Array.make k 0;
        on_predict;
      }
    in
    let kern = kernel (module S) ~program lanes in
    let window = match ev with None -> max_int | Some e -> e.ev_window in
    {
      scheme = S.name;
      table;
      lanes;
      kern;
      sampler = Option.map (fun e -> Sampler.create e ~scheme:S.name ~delays) ev;
      window;
      next_sample = window;
      total = 0;
    }

  (* Bring per-path state up to the table's size: the first sync sizes
     the arrays exactly (a finished recording never grows again), later
     ones double. *)
  let sync t =
    let ln = t.lanes in
    let np = Path_table.size t.table in
    if np > ln.np then begin
      let cap = Array.length ln.freq in
      if np > cap then begin
        let n = if cap = 0 then np else max np (2 * cap) in
        ln.heads <- extend ln.heads n 0;
        ln.branches <- extend ln.branches n 0;
        ln.blocks <- extend ln.blocks n 0;
        ln.freq <- extend ln.freq n 0;
        Array.iteri (fun l a -> ln.pa.(l) <- extend a n max_int) ln.pa;
        Array.iteri (fun l a -> ln.cap.(l) <- extend a n 0) ln.cap;
        t.kern.grow n
      end;
      for id = ln.np to np - 1 do
        let p = Path_table.path t.table id in
        ln.heads.(id) <- Path.head p;
        ln.branches.(id) <- p.Path.n_branches;
        ln.blocks.(id) <- Array.length p.Path.blocks
      done;
      ln.np <- np
    end;
    np

  let sample_lanes t f upto =
    match t.sampler with
    | None -> ()
    | Some sm ->
      let ln = t.lanes in
      for l = 0 to Array.length ln.delays - 1 do
        let counter_space, profiling_ops, collection_ops = t.kern.stats l in
        f sm l ~upto ~n_paths:ln.np ~captured_arr:ln.cap.(l)
          ~predictions:(Vec.length ln.preds.(l))
          ~profiled:ln.profiled.(l) ~captured_total:ln.cap_total.(l)
          ~counter_space ~profiling_ops ~collection_ops
      done

  (* The kernel walks whole windows: the slice is cut at each sample
     boundary, so event sampling costs the loops nothing per instance. *)
  let walk t ids arrs ~off ~len =
    ignore (sync t);
    let j = ref 0 in
    while !j < len do
      let room = t.next_sample - t.total in
      let m = if room < len - !j then room else len - !j in
      t.kern.walk ids arrs (off + !j) m t.total;
      t.total <- t.total + m;
      j := !j + m;
      if t.total >= t.next_sample then begin
        sample_lanes t Sampler.sample t.total;
        t.next_sample <- t.next_sample + t.window
      end
    done

  let instances t = t.total

  let outcomes t =
    let np = sync t in
    sample_lanes t Sampler.final t.total;
    let ln = t.lanes in
    let fit a = if Array.length a = np then a else Array.sub a 0 np in
    let freq = fit ln.freq in
    List.init (Array.length ln.delays) (fun l ->
        let counter_space, profiling_ops, collection_ops = t.kern.stats l in
        {
          scheme_name = t.scheme;
          delay = ln.delays.(l);
          total_instances = t.total;
          predictions = Vec.to_array ln.preds.(l);
          predicted_at = fit ln.pa.(l);
          freq = (if l = 0 then freq else Array.copy freq);
          captured = fit ln.cap.(l);
          profiled_instances = ln.profiled.(l);
          captured_instances = ln.cap_total.(l);
          counter_space;
          profiling_ops;
          collection_ops;
        })
end

(* ------------------------------------------------------------------ *)
(* Online sessions                                                     *)
(* ------------------------------------------------------------------ *)

(* A session is an engine behind a validation gate.  Every push ends in
   [Engine.walk], the same entry point [Replay] drives, so the online
   and batch results agree by construction. *)
type t = {
  engine : Engine.t;
  lint : Lint.Incremental.t option;
  scratch : Batch.t;  (* [push_chunk]'s copy of the chunk *)
  mutable finished : outcome list option;
}

let first_error diags =
  match List.find_opt (fun d -> d.Diag.severity = Diag.Error) diags with
  | Some d -> Diag.to_string d
  | None -> "trace rejected by linter"

let create ?events ?(lint = true) ?on_predict scheme ~delays ~program ~table =
  (* Scheme-side delay validation first, with each scheme's own message
     — same exception surface as the batch engine. *)
  let engine =
    Engine.create ?events:(live events) ?on_predict scheme
      ~delays:(Array.of_list delays) ~program ~table
  in
  let linted =
    if lint then
      match Lint.Incremental.create ~program ~table with
      | Error diags -> Error (first_error diags)
      | Ok l -> Ok (Some l)
    else Ok None
  in
  Result.map
    (fun lint ->
       { engine; lint; scratch = Batch.create ~capacity:1 (); finished = None })
    linted

let instances t = Engine.instances t.engine

(* The gate runs before any session state moves: a rejected batch leaves
   counters, predictions, and the event stream exactly as they were.
   Unlinted sessions still refuse ids and arrival bytes the kernels
   cannot process — undeclared paths would read unsynced per-path
   slots.  [name] prefixes the error messages. *)
let push_gated ~name t (b : Batch.t) =
  match t.finished with
  | Some _ -> Error (name ^ ": session already finished")
  | None ->
    let n = Batch.length b in
    let ids = b.Batch.ids and arrs = b.Batch.arrs in
    (* The kernels read the batch unchecked. *)
    if n > Array.length ids || n > Bytes.length arrs then
      invalid_arg (name ^ ": batch length exceeds its arrays");
    let gate =
      match t.lint with
      | Some lt ->
        let diags = Lint.Incremental.check_batch lt b in
        if Diag.has_errors diags then Error (first_error diags) else Ok ()
      | None -> (
        let np = Engine.sync t.engine in
        (* First offending instance, or [n]. *)
        let rec scan j =
          if j = n then n
          else
            let id = Array.unsafe_get ids j in
            if id < 0 || id >= np || Bytes.unsafe_get arrs j > '\002' then j
            else scan (j + 1)
        in
        let j = scan 0 in
        if j = n then Ok ()
        else
          let id = ids.(j) in
          if id < 0 || id >= np then
            Error
              (Printf.sprintf "%s: path id %d out of range (%d paths)" name id np)
          else
            Error
              (Printf.sprintf "%s: invalid arrival code %d" name
                 (Char.code (Bytes.get arrs j))))
    in
    Result.map (fun () -> Engine.walk t.engine ids arrs ~off:0 ~len:n) gate

let push_batch t b = push_gated ~name:"Session.push_batch" t b

let push_chunk t ~ids ~arrivals =
  match t.finished with
  | Some _ -> Error "Session.push_chunk: session already finished"
  | None when Bytes.length arrivals <> Array.length ids ->
    Error
      (Printf.sprintf "Session.push_chunk: %d arrivals for %d instances"
         (Bytes.length arrivals) (Array.length ids))
  | None ->
    Batch.fill_of_chunk t.scratch ~ids ~arrivals;
    push_gated ~name:"Session.push_chunk" t t.scratch

let code_of_arrival = function
  | Path.Loop_head -> '\000'
  | Path.Entry -> '\001'
  | Path.Continuation -> '\002'

let push t ~path_id ~arrival =
  push_chunk t ~ids:[| path_id |]
    ~arrivals:(Bytes.make 1 (code_of_arrival arrival))

let finish t =
  match t.finished with
  | Some os -> os
  | None ->
    let os = Engine.outcomes t.engine in
    t.finished <- Some os;
    os
