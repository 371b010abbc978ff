type t = int32

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Slicing-by-8 tables on native ints, flattened into one array: entry
   [(k lsl 8) lor b] is the register contribution of byte [b] followed
   by [k] zero bytes, so eight lookups absorb eight message bytes at
   once.  Entries fit 32 bits and stay non-negative, so [lsr] is the
   logical shift.  Computed eagerly at module initialisation: the array
   is read-only afterwards, so any number of domains may checksum at
   once (a lazy table raises [CamlinternalLazy.Undefined] when two
   domains force it together). *)
let tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) lsl 8) lor n) in
      t.((k lsl 8) lor n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

let empty = 0l

(* Standard composable form: the register is inverted on entry and exit,
   so the state between updates is the plain (finalized) checksum. *)
let[@inline] enter crc = Int32.to_int (Int32.lognot crc) land 0xFFFF_FFFF

let[@inline] leave c = Int32.lognot (Int32.of_int c)

let[@inline] step1 c byte =
  Array.unsafe_get tables ((c lxor byte) land 0xFF) lxor (c lsr 8)

(* [lo] holds message bytes 0-3 and [hi] bytes 4-7, each as a
   little-endian 32-bit word. *)
let[@inline] step8 c lo hi =
  let t = tables in
  let x = c lxor lo in
  Array.unsafe_get t (0x700 lor (x land 0xFF))
  lxor Array.unsafe_get t (0x600 lor ((x lsr 8) land 0xFF))
  lxor Array.unsafe_get t (0x500 lor ((x lsr 16) land 0xFF))
  lxor Array.unsafe_get t (0x400 lor (x lsr 24))
  lxor Array.unsafe_get t (0x300 lor (hi land 0xFF))
  lxor Array.unsafe_get t (0x200 lor ((hi lsr 8) land 0xFF))
  lxor Array.unsafe_get t (0x100 lor ((hi lsr 16) land 0xFF))
  lxor Array.unsafe_get t (hi lsr 24)

(* Word loads by primitive, so each loop below compiles to direct loads
   for its one buffer kind.  Every access is typed: an unannotated
   [Bigarray.Array1.unsafe_get] compiles as a polymorphic C call per
   byte, whatever the .mli says.  The primitives read native-endian, so
   they are byte-swapped on big-endian hosts, as the stdlib does. *)
external bigstring_get32u : bigstring -> int -> int32 = "%caml_bigstring_get32u"

external bytes_get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] le32 w =
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xFFFF_FFFF

let update_bytes crc (b : Bytes.t) ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32.update_bytes: slice out of bounds";
  let c = ref (enter crc) and i = ref pos in
  let last = pos + len in
  while last - !i >= 8 do
    let p = !i in
    c := step8 !c (le32 (bytes_get32u b p)) (le32 (bytes_get32u b (p + 4)));
    i := p + 8
  done;
  while !i < last do
    c := step1 !c (Char.code (Bytes.unsafe_get b !i));
    incr i
  done;
  leave !c

let update_bigstring crc (b : bigstring) ~pos ~len =
  if pos < 0 || len < 0 || pos > Bigarray.Array1.dim b - len then
    invalid_arg "Crc32.update_bigstring: slice out of bounds";
  let c = ref (enter crc) and i = ref pos in
  let last = pos + len in
  while last - !i >= 8 do
    let p = !i in
    c :=
      step8 !c (le32 (bigstring_get32u b p)) (le32 (bigstring_get32u b (p + 4)));
    i := p + 8
  done;
  while !i < last do
    c := step1 !c (Char.code (Bigarray.Array1.unsafe_get b !i));
    incr i
  done;
  leave !c

let update_string crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update_string: slice out of bounds";
  update_bytes crc (Bytes.unsafe_of_string s) ~pos ~len

let update_char crc ch = leave (step1 (enter crc) (Char.code ch))

let digest_string s = update_string empty s ~pos:0 ~len:(String.length s)
