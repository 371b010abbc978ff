(** In-memory span recorder for the traced benchmark run.

    A span covers one call into a library layer: its name, its start
    and end on the monotonic clock (nanoseconds), the span that was open
    when it began (its parent), and the id of the benchmark op it
    belongs to.  Spans are kept in memory while the run measures and
    written out once it ends, so recording costs two clock reads and
    one small allocation per span. *)

type span = {
  id : int;
  name : string;
  op : int;  (** Benchmark op id; children inherit their parent's. *)
  parent : int;  (** Id of the enclosing span, [-1] at top level. *)
  start_ns : int64;
  stop_ns : int64;
}

type t

val create : ?first_id:int -> unit -> t
(** A recorder is single-owner: give each concurrent client its own,
    with disjoint id ranges ([first_id], default 0), and merge them with
    {!spans_of}. *)

val now_ns : unit -> int64
(** The monotonic clock (CLOCK_MONOTONIC, nanoseconds). *)

val with_span : t -> ?op:int -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span named [name], nested
    under the span currently open, if any.  [op] sets the op id of a
    top-level span; nested spans take their parent's.  The span is
    closed when [f] returns or raises. *)

val spans : t -> span list
(** Every closed span, in start order. *)

val spans_of : t list -> span list
(** The closed spans of several recorders, merged in start order. *)

val duration_ns : span -> int64

val self_times : span list -> (span * int64) list
(** Each span with its self time: its duration minus the part of its
    interval that the union of its children's intervals covers.
    Children are the spans whose [parent] is its [id]; overlapping
    children are counted once, and a child's part outside the parent
    is ignored. *)

val write_jsonl : span list -> self:(span * int64) list -> string -> unit
(** Write one JSON line per span (fields [id], [name], [op],
    [parent], [start_ns], [stop_ns], [self_ns]) to a file. *)
