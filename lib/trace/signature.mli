(** Bit-tracing path signatures.

    Section 2 of the paper identifies a path by
    [<start_address>.<history>,<indirect_branch_target_list>]: the start
    address, one bit per conditional branch on the path (1 = taken, in
    execution order), and the targets of any indirect branches.  Signatures
    are built on the fly as the program executes — no preparatory static
    analysis — which is why bit tracing is the natural substrate for an
    online scheme.

    Paths are capped at {!max_branches} conditional branches (mirroring
    trace-length caps in real systems such as Dynamo); the history then
    fits one OCaml [int], so a signature under construction is a handful
    of registers: head, length, history bits and a running hash of the
    indirect targets ({!hash_key}).  The path table is probed on exactly
    that key. *)

module Cfg = Hotpath_cfg.Cfg

type t
(** Immutable signature, usable as a hash-table key. *)

val max_branches : int
(** Upper bound on conditional branches per path (62). *)

val make :
  head:Cfg.block_id -> length:int -> bits:int -> indirects:Cfg.block_id list -> t
(** The signature with these parts: [bits] holds the [length] branch
    outcomes (bit [i] = [i]-th branch), [indirects] the targets in
    execution order.
    @raise Invalid_argument when [length] is outside [\[0, max_branches\]]
    or [bits] has a bit set at or above [length]. *)

val head : t -> Cfg.block_id
(** The start address. *)

val length : t -> int
(** Number of conditional branches recorded. *)

val bit : t -> int -> bool
(** [bit s i] — outcome of the [i]-th branch on the path (0-based, in
    execution order).  @raise Invalid_argument when out of range. *)

val bits : t -> int
(** History word; bit [i] is the [i]-th branch outcome. *)

val history : t -> int64
(** {!bits} widened to the 64-bit word the trace formats store. *)

val indirect_targets : t -> Cfg.block_id list
(** Indirect-branch targets in execution order (usually empty). *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int
(** [hash_key] of the signature's parts. *)

val mix_indirect : int -> Cfg.block_id -> int
(** One step of the running indirect-target hash: fold it over the
    targets in execution order, starting from [0]. *)

val indirect_hash : t -> int
(** The running hash of the signature's indirect targets. *)

val hash_key :
  head:Cfg.block_id -> length:int -> bits:int -> indirect_hash:int -> int
(** Non-negative hash of a signature key: equal signatures have equal
    keys, and a path under construction has its key in hand without
    materializing a signature. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** E.g. ["B5.0101,[B9]"] — head, branch outcomes in execution order
    (leftmost = first), indirect targets if any.  Matches the paper's
    [A.0101] notation for Figure 1. *)

(** Incremental construction during execution: one [add_branch] per
    conditional branch (a shift-or, the profiling operation whose cost the
    paper charges to bit tracing) and one [add_indirect] per indirect
    branch. *)
module Builder : sig
  type signature := t

  type t

  val create : head:Cfg.block_id -> t

  val reset : t -> head:Cfg.block_id -> unit
  (** Reuse the builder for the next path. *)

  val add_branch : t -> taken:bool -> unit
  (** @raise Invalid_argument when {!max_branches} bits are already
      recorded — callers must end the path at the cap. *)

  val add_indirect : t -> target:Cfg.block_id -> unit

  val branch_count : t -> int

  val freeze : t -> signature
  (** Immutable snapshot; the builder remains usable. *)
end
