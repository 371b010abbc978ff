module Cfg = Hotpath_cfg.Cfg
module Vec = Hotpath_util.Vec

(* Open addressing with linear probing, keys inline.  Slot [i] is the
   [stride] ints at [stride * i] of [slots]:
   - the path id ([-1] = empty), with its block count from bit 31;
   - the head;
   - the signature length, with the indirect-target count from bit 6;
   - the branch bits;
   - the indirect-target hash.
   A probe reads one slot and nothing else, so a repeat path costs about
   one cache miss and no walk through its [Path.t].  A path's indirect
   targets sit in [targets] from [target_off.(id)], read only when it has
   some.  At most three quarters of the slots are full. *)
type t = {
  mutable slots : int array;
  mutable targets : int array;  (* every path's indirect targets, flat *)
  mutable n_targets : int;
  mutable target_off : int array;  (* by path id *)
  by_id : Path.t Vec.t;
}

let stride = 5

let empty_slots n =
  let slots = Array.make (stride * n) 0 in
  for i = 0 to n - 1 do
    slots.(stride * i) <- -1
  done;
  slots

let create () =
  {
    slots = empty_slots 16;
    targets = [||];
    n_targets = 0;
    target_off = Array.make 16 0;
    by_id = Vec.create ();
  }

let size t = Vec.length t.by_id

let n_slots t = Array.length t.slots / stride

let same_targets t ~off indirects n =
  let rec from i = i = n || (t.targets.(off + i) = indirects.(i) && from (i + 1)) in
  from 0

(* Offset in [slots] of the slot holding the path with this signature —
   the key and then the full indirect-target list must match — or of the
   empty slot where it belongs. *)
let probe t ~head ~length ~bits ~indirect_hash ~indirects ~n_indirects =
  let slots = t.slots in
  let mask = n_slots t - 1 in
  let counts = length lor (n_indirects lsl 6) in
  let i = ref (Signature.hash_key ~head ~length ~bits ~indirect_hash land mask) in
  let searching = ref true in
  while !searching do
    let k = stride * !i in
    let w = slots.(k) in
    if
      w < 0
      || slots.(k + 1) = head
         && slots.(k + 2) = counts
         && slots.(k + 3) = bits
         && slots.(k + 4) = indirect_hash
         && (n_indirects = 0
             || same_targets t ~off:t.target_off.(w land 0x7FFF_FFFF) indirects n_indirects)
    then searching := false
    else i := (!i + 1) land mask
  done;
  stride * !i

let grow_slots t =
  let old = t.slots in
  let slots = empty_slots (2 * n_slots t) in
  let mask = (2 * n_slots t) - 1 in
  for j = 0 to n_slots t - 1 do
    let o = stride * j in
    if old.(o) >= 0 then begin
      let i =
        ref
          (Signature.hash_key ~head:old.(o + 1) ~length:(old.(o + 2) land 63)
             ~bits:old.(o + 3) ~indirect_hash:old.(o + 4)
           land mask)
      in
      while slots.(stride * !i) >= 0 do
        i := (!i + 1) land mask
      done;
      (* A typed copy: [Array.blit] into a major-heap array pays a write
         barrier per int. *)
      for f = 0 to stride - 1 do
        slots.((stride * !i) + f) <- old.(o + f)
      done
    end
  done;
  t.slots <- slots

let grow a needed =
  if needed <= Array.length a then a
  else begin
    let b = Array.make (max needed (2 * Array.length a)) 0 in
    for j = 0 to Array.length a - 1 do
      b.(j) <- a.(j)
    done;
    b
  end

(* Add [path] (whose id is [size t]) at the empty slot [k] found by
   [probe] for its key. *)
let add t k ~indirect_hash ~indirects ~n_indirects (path : Path.t) =
  let id = path.Path.id and n_blocks = Array.length path.Path.blocks in
  if id lsr 31 <> 0 || n_blocks lsr 31 <> 0 then
    invalid_arg "Path_table: path id or block count beyond 2^31";
  t.targets <- grow t.targets (t.n_targets + n_indirects);
  for j = 0 to n_indirects - 1 do
    t.targets.(t.n_targets + j) <- indirects.(j)
  done;
  t.target_off <- grow t.target_off (id + 1);
  t.target_off.(id) <- t.n_targets;
  t.n_targets <- t.n_targets + n_indirects;
  let s = path.Path.signature and slots = t.slots in
  slots.(k) <- id lor (n_blocks lsl 31);
  slots.(k + 1) <- Signature.head s;
  slots.(k + 2) <- Signature.length s lor (n_indirects lsl 6);
  slots.(k + 3) <- Signature.bits s;
  slots.(k + 4) <- indirect_hash;
  Vec.push t.by_id path;
  if 4 * size t > 3 * n_slots t then grow_slots t;
  id

(* Bit-tracing signatures determine the block sequence (see DESIGN.md
   §5); a mismatch would indicate a recorder bug. *)
let known t k ~n_blocks =
  let w = t.slots.(k) in
  assert (w lsr 31 = n_blocks);
  w land 0x7FFF_FFFF

let intern_completed t (seg : Segmenter.t) =
  let indirect_hash = seg.Segmenter.indirect_hash
  and indirects = seg.Segmenter.indirect_buf
  and n_indirects = seg.Segmenter.n_indirects in
  let k =
    probe t ~head:seg.Segmenter.head ~length:seg.Segmenter.n_branches
      ~bits:seg.Segmenter.bits ~indirect_hash ~indirects ~n_indirects
  in
  if t.slots.(k) >= 0 then known t k ~n_blocks:seg.Segmenter.n_blocks
  else
    add t k ~indirect_hash ~indirects ~n_indirects
      {
        Path.id = size t;
        signature = Segmenter.signature seg;
        blocks = Segmenter.blocks seg;
        n_instrs = seg.Segmenter.n_instrs;
        n_branches = seg.Segmenter.n_branches;
        end_kind = seg.Segmenter.end_kind;
      }

let probe_signature t s =
  let indirect_hash = Signature.indirect_hash s in
  let indirects = Array.of_list (Signature.indirect_targets s) in
  let k =
    probe t ~head:(Signature.head s) ~length:(Signature.length s)
      ~bits:(Signature.bits s) ~indirect_hash ~indirects
      ~n_indirects:(Array.length indirects)
  in
  (k, indirect_hash, indirects)

let intern t signature ~blocks ~n_instrs ~n_branches ~end_kind =
  let k, indirect_hash, indirects = probe_signature t signature in
  if t.slots.(k) >= 0 then known t k ~n_blocks:(Array.length blocks)
  else
    add t k ~indirect_hash ~indirects ~n_indirects:(Array.length indirects)
      { Path.id = size t; signature; blocks; n_instrs; n_branches; end_kind }

let find t signature =
  let k, _, _ = probe_signature t signature in
  let w = t.slots.(k) in
  if w >= 0 then Some (w land 0x7FFF_FFFF) else None

let path t id =
  if id < 0 || id >= Vec.length t.by_id then
    invalid_arg (Printf.sprintf "Path_table.path: unknown id %d" id);
  Vec.get t.by_id id

let paths t = Vec.to_array t.by_id

let iter f t = Vec.iter f t.by_id

let unique_heads t =
  let heads = Hashtbl.create 64 in
  Vec.iter (fun p -> Hashtbl.replace heads (Path.head p) ()) t.by_id;
  List.sort Int.compare (Hashtbl.fold (fun h () acc -> h :: acc) heads [])
