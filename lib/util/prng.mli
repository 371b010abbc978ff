(** Deterministic pseudo-random number generation.

    All randomness in the reproduction flows through this module so that a
    given seed yields byte-identical workloads, traces, and experiment rows
    on every run.  The generator is splitmix64 (Steele, Lea & Flood 2014): a
    64-bit state advanced by a Weyl constant and finalized with a
    variant of the MurmurHash3 mixer.  It is fast, has a full 2^64 period,
    and supports cheap splitting into independent streams.  The state is
    kept unboxed, so a draw allocates nothing. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Generators created from equal
    seeds produce equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future
    stream from this point. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator seeded from the drawn
    value, statistically independent of [t]'s subsequent output.  Used to
    give each benchmark / procedure / branch its own stream so that local
    changes do not perturb unrelated draws. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> p:float -> bool
(** [bool t ~p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array.  @raise Invalid_argument on an
    empty array. *)

val pick_weighted : t -> weights:float array -> int
(** [pick_weighted t ~weights] draws an index with probability proportional
    to its weight.  Weights must be non-negative with a positive sum.
    @raise Invalid_argument otherwise. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
