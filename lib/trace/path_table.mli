(** Interned path table: signature -> dense path id.

    The table is what a bit-tracing path profiler maintains at runtime; its
    size is the counter-space cost of path-profile-based prediction
    (Section 5.2, Table 2, Figure 4 of the paper).

    It is an open-addressing table probed on the signature key — head,
    length, branch bits and indirect-target hash ({!Signature.hash_key}),
    the registers a {!Segmenter} keeps — and a key match is confirmed on
    the full signature (the indirect-target list).  A repeat path costs
    one probe and no allocation; {!Path.t}, its {!Signature.t} and its
    blocks are materialized only when a path is first seen. *)

module Cfg = Hotpath_cfg.Cfg

type t

val create : unit -> t

val size : t -> int
(** Number of distinct paths interned. *)

val intern :
  t ->
  Signature.t ->
  blocks:Cfg.block_id array ->
  n_instrs:int ->
  n_branches:int ->
  end_kind:Path.end_kind ->
  int
(** Id of the path with this signature, allocating on first sight.  The
    descriptive fields are taken from the first occurrence (subsequent
    occurrences of the same signature necessarily describe the same block
    sequence; this is asserted). *)

val intern_completed : t -> Segmenter.t -> int
(** {!intern} for the path the segmenter just completed, probed on its
    key without materializing its signature or blocks unless the path is
    new. *)

val find : t -> Signature.t -> int option

val path : t -> int -> Path.t
(** @raise Invalid_argument for an unknown id. *)

val paths : t -> Path.t array
(** Dense array indexed by path id (fresh copy). *)

val iter : (Path.t -> unit) -> t -> unit
(** In increasing id order. *)

val unique_heads : t -> Cfg.block_id list
(** Distinct head blocks, ascending — the counter set NET would allocate if
    every head were a loop head (the paper's Table 2 counts heads of
    recorded paths). *)
