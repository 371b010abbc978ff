(** CRC-32 (IEEE 802.3, the zlib polynomial 0xEDB88320).

    The streaming trace format frames every chunk with a CRC so that a
    torn write, a flipped bit, or a corrupted length field is detected at
    read time instead of producing a silently wrong replay.  The digest is
    incremental: feed slices in any granularity; equal byte sequences give
    equal digests regardless of how they were sliced.

    One slicing-by-8 kernel on untagged native ints serves every buffer
    kind: eight table lookups absorb eight bytes read as two 32-bit word
    loads, with one monomorphic loop per kind (strings go through the
    bytes loop).  It runs at about 1 GB/s, some 4x a byte-at-a-time table
    loop; [bench streaming --smoke] gates each kind at 2x or more. *)

type t = int32
(** Running digest state.  Also the final digest value: the state after
    the last update {e is} the checksum (zlib-style pre/post conditioning
    is applied inside every update). *)

val empty : t
(** Digest of the empty byte sequence (0l). *)

val update_string : t -> string -> pos:int -> len:int -> t
(** Extend the digest with [len] bytes of [s] starting at [pos].
    @raise Invalid_argument when the slice is out of bounds. *)

val update_bytes : t -> Bytes.t -> pos:int -> len:int -> t

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A char [Bigarray] — the view type of a memory-mapped trace file. *)

val update_bigstring : t -> bigstring -> pos:int -> len:int -> t
(** Extend the digest straight over a mapped region — no copy into the
    OCaml heap.  Equal bytes give equal digests across all three buffer
    kinds, which is what lets the mapped reader check the same frame
    CRCs the pull reader wrote. *)

val update_char : t -> char -> t

val digest_string : string -> t
(** One-shot digest of a whole string. *)
