(** A reusable dense view of a slice of the instance stream — the
    batched-decode contract between ingest and replay.

    A batch holds path ids and arrival codes in the representation of a
    recording ({!Recorder.t}'s [instances] and [arrivals]), so the
    replay kernels walk a decoded frame and an in-memory recording
    through the same loop, with no per-instance conversion and no copy
    of the recording.

    {b Lifetime rules.}  A batch is a scratch buffer owned by its
    filler.  Readers may access indices [0, length t) of {!ids} and
    {!arrs}; they must not retain
    the arrays past the call that handed them the batch — the next fill
    writes over the same storage, and growth swaps the arrays out
    entirely. *)

type t = {
  mutable n : int;
  mutable ids : int array;  (** Path ids, valid in [\[0, n)]. *)
  mutable arrs : Bytes.t;
      (** Arrival codes, one byte per instance ([0] loop-head, [1]
          entry, [2] continuation — {!Recorder.arrival_of_code}), valid in
          [\[0, n)]. *)
}

val create : ?capacity:int -> unit -> t
(** Fresh empty batch.  [capacity] (default 1024) presizes {!ids} and
    {!arrs}; all fills grow amortized-doubling beyond it. *)

val length : t -> int

val clear : t -> unit

val ensure : t -> int -> unit
(** Grow {!ids}/{!arrs} to hold at least [n] instances, keeping the
    valid prefix. *)

val push : t -> int -> char -> unit
(** Append one instance: a path id and its arrival code (grows the
    arrays as needed). *)

val set_length : t -> int -> unit
(** Declare [n] instances valid after a direct array fill (grows the
    arrays first).  @raise Invalid_argument when [n < 0]. *)

val fill_of_chunk : t -> ids:int array -> arrivals:Bytes.t -> unit
(** Copy a pull-reader chunk into the batch.  Performs no validation —
    gate the contents exactly as you would the chunk.
    @raise Invalid_argument when [arrivals] is shorter than [ids]. *)
