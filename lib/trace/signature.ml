module Cfg = Hotpath_cfg.Cfg

type t = {
  shead : Cfg.block_id;
  slen : int;
  sbits : int;  (* bit i = outcome of i-th branch; 62 bits fit an int *)
  sindirects : Cfg.block_id list;  (* execution order *)
}

let max_branches = 62

let make ~head ~length ~bits ~indirects =
  if length < 0 || length > max_branches then
    invalid_arg "Signature.make: length out of range";
  if bits lsr length <> 0 then invalid_arg "Signature.make: bits beyond length";
  { shead = head; slen = length; sbits = bits; sindirects = indirects }

let head s = s.shead

let length s = s.slen

let bit s i =
  if i < 0 || i >= s.slen then invalid_arg "Signature.bit: index out of range";
  (s.sbits lsr i) land 1 = 1

let bits s = s.sbits

let history s = Int64.of_int s.sbits

let indirect_targets s = s.sindirects

let equal a b =
  a.shead = b.shead && a.slen = b.slen
  && a.sbits = b.sbits
  && List.equal Int.equal a.sindirects b.sindirects

let compare a b =
  let c = Int.compare a.shead b.shead in
  if c <> 0 then c
  else
    let c = Int.compare a.slen b.slen in
    if c <> 0 then c
    else
      let c = Int.compare a.sbits b.sbits in
      if c <> 0 then c else List.compare Int.compare a.sindirects b.sindirects

let mix_indirect h target = (h * 31) + target

let indirect_hash s = List.fold_left mix_indirect 0 s.sindirects

let hash_key ~head ~length ~bits ~indirect_hash =
  let mix h x =
    let h = (h lxor x) * 0x1E3779B97F4A7C15 in
    h lxor (h lsr 32)
  in
  mix (mix (mix (mix 0 head) length) bits) indirect_hash land max_int

let hash s =
  hash_key ~head:s.shead ~length:s.slen ~bits:s.sbits ~indirect_hash:(indirect_hash s)

let to_string s =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (Printf.sprintf "B%d." s.shead);
  for i = 0 to s.slen - 1 do
    Buffer.add_char buf (if bit s i then '1' else '0')
  done;
  (match s.sindirects with
   | [] -> ()
   | targets ->
     Buffer.add_string buf ",[";
     List.iteri
       (fun i t ->
          if i > 0 then Buffer.add_char buf ';';
          Buffer.add_string buf (Printf.sprintf "B%d" t))
       targets;
     Buffer.add_char buf ']');
  Buffer.contents buf

let pp ppf s = Format.pp_print_string ppf (to_string s)

module Builder = struct
  type t = {
    mutable bhead : Cfg.block_id;
    mutable blen : int;
    mutable bbits : int;
    mutable bindirects : Cfg.block_id list;  (* reversed *)
  }

  let create ~head = { bhead = head; blen = 0; bbits = 0; bindirects = [] }

  let reset t ~head =
    t.bhead <- head;
    t.blen <- 0;
    t.bbits <- 0;
    t.bindirects <- []

  let add_branch t ~taken =
    if t.blen >= max_branches then
      invalid_arg "Signature.Builder.add_branch: path branch cap exceeded";
    if taken then t.bbits <- t.bbits lor (1 lsl t.blen);
    t.blen <- t.blen + 1

  let add_indirect t ~target = t.bindirects <- target :: t.bindirects

  let branch_count t = t.blen

  let freeze t =
    {
      shead = t.bhead;
      slen = t.blen;
      sbits = t.bbits;
      sindirects = List.rev t.bindirects;
    }
end
