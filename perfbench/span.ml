type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  mutable next_id : int;
  mutable open_ : (int * int) list;  (* (id, op) of open spans, innermost first *)
  mutable closed : span list;
}

let create ?(first_id = 0) () = { next_id = first_id; open_ = []; closed = [] }

let now_ns = Monotonic_clock.now

let with_span t ?(op = -1) name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent, op =
    match t.open_ with [] -> (-1, op) | (p, pop) :: _ -> (p, pop)
  in
  let saved = t.open_ in
  t.open_ <- (id, op) :: saved;
  let start_ns = now_ns () in
  let close () =
    let stop_ns = now_ns () in
    t.open_ <- saved;
    t.closed <- { id; name; op; parent; start_ns; stop_ns } :: t.closed
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let spans_of ts =
  List.sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> compare a.id b.id
      | c -> c)
    (List.concat_map (fun t -> t.closed) ts)

let spans t = spans_of [ t ]

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when Int64.compare a cb <= 0 -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then Hashtbl.add children s.parent (s.start_ns, s.stop_ns))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, Int64.sub (duration_ns s) (covered ~lo:s.start_ns ~hi:s.stop_ns kids)))
    spans

let write_jsonl spans ~self path =
  let selfs = Hashtbl.create (List.length self) in
  List.iter (fun (s, v) -> Hashtbl.replace selfs s.id v) self;
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%Ld,\"stop_ns\":%Ld,\"self_ns\":%Ld}\n"
            s.id s.name s.op s.parent s.start_ns s.stop_ns
            (Option.value (Hashtbl.find_opt selfs s.id) ~default:0L))
        spans)
