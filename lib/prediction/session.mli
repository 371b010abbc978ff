(** Online prediction sessions: the replay engine exposed as an
    incremental push API.

    A session holds the full multiplexed replay state for one scheme and
    a set of delay lanes — scheme state, per-path frequency and capture
    counters, accepted predictions, event sampler cursors — and accepts
    the instance stream in caller-chosen pieces: one instance at a time
    ({!push}), decoded HOTPATH3 chunks ({!push_chunk}) or batches
    ({!push_batch}), or anything in between.  Every push ends in the
    same call, {!Engine.walk}, which in-memory {!Replay.run_many} makes
    over a whole recording: built-in schemes run their flattened kernel
    here exactly as they do there, and other schemes run the generic
    walker.  Chunking is pure loop tiling: pushing a trace in any
    granularity produces outcomes, counter registries, and event streams
    bit-identical to the batch engine on the same stream.  The
    differential suites hold each kernel to the generic walker, driven
    through a look-alike scheme the dispatch does not recognize.

    Sessions also carry the trace lint gate online (on by default): each
    chunk is checked against the program — newly declared paths, then
    every inter-instance hand-off including the seam from the previous
    chunk — {e before} any session state moves, so a malformed trace
    pushed over a socket is rejected without corrupting the session
    ([Hotpath_trace.Lint.Incremental]).

    Sessions are single-owner (not thread-safe), like the rest of the
    per-lane replay state. *)

module Path = Hotpath_trace.Path
module Path_table = Hotpath_trace.Path_table
module Cfg = Hotpath_cfg.Cfg
module Events = Hotpath_util.Events

type prediction = { target : int; at_instance : int }
(** An accepted prediction: path [target] predicted hot at (0-based)
    instance index [at_instance]. *)

type outcome = {
  scheme_name : string;
  delay : int;
  total_instances : int;
  predictions : prediction array;
  predicted_at : int array;
  freq : int array;
  captured : int array;
  profiled_instances : int;
  captured_instances : int;
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}
(** One delay lane's result; identical to [Replay.outcome] (which is a
    re-export of this type). *)

type events = {
  ev_sink : Events.sink;
  ev_window : int;
  ev_is_hot : (int -> bool) option;
}
(** Event-emission configuration, shared with [Replay].  Exposed
    concretely so drivers can rebind [ev_sink] (per-group line buffers in
    parallel replay). *)

val default_events_window : int

val events : ?window:int -> ?is_hot:(int -> bool) -> Events.sink -> events
(** See [Replay.events].  @raise Invalid_argument when [window < 1]. *)

val live : events option -> events option
(** Treat a null-sink events value as disabled. *)

(** The replay engine behind every surface.  Internal plumbing for
    [Replay] — not part of the stable surface. *)
module Engine : sig
  (** The built-in schemes that have a kernel, recognized by the
      physical identity of the packed module's [observe] (its [create]
      for the k-families); anything else runs the generic walker. *)
  type builtin =
    | Net_rearm
    | Net_once
    | Net_prev
    | Path_profile
    | Path_profile_k of int
    | Net_k of int

  val builtin : (module Scheme.S) -> builtin option

  type t
  (** One scheme's replay state for a set of delay lanes: the kernel
      (or generic walker), per-lane counters, per-path state synced from
      a path table that may keep growing, and the event sampler. *)

  val create :
    ?events:events ->
    ?on_predict:(delay:int -> target:int -> at_instance:int -> unit) ->
    (module Scheme.S) ->
    delays:int array ->
    program:Cfg.program ->
    table:Path_table.t ->
    t
  (** @raise Invalid_argument for delays the scheme rejects. *)

  val walk : t -> int array -> Bytes.t -> off:int -> len:int -> unit
  (** Replay instances [off, off + len) of the id array and
      arrival-code bytes as the next [len] instances of the stream.
      Performs no validation: [off + len] must lie within both arrays,
      every id must be a declared path and every code at most 2. *)

  val outcomes : t -> outcome list
  (** Emit each lane's final event sample and return the outcomes in
      delay order.  Call once, after the last walk. *)
end

type t

val create :
  ?events:events ->
  ?lint:bool ->
  ?on_predict:(delay:int -> target:int -> at_instance:int -> unit) ->
  (module Scheme.S) ->
  delays:int list ->
  program:Cfg.program ->
  table:Path_table.t ->
  (t, string) result
(** [create (module S) ~delays ~program ~table] opens a session
    multiplexing one lane per delay, against a path table that may keep
    growing (the streaming decode protocol extends it between chunks; the
    session syncs per-path state on every push).

    [lint] (default [true]) runs the attach-time program gate
    immediately — [Error] if the program fails the structural linter —
    and the chunk-wise trace linter on every push.  [on_predict] is
    called synchronously at each accepted prediction, in lane order
    within an instance — the online counterpart of reading
    [outcome.predictions] at the end.  It must not mutate the session.

    @raise Invalid_argument for delays the scheme itself rejects
    (mirroring the batch engine). *)

val push_chunk : t -> ids:int array -> arrivals:Bytes.t -> (unit, string) result
(** Feed one decoded chunk ([Serialize.Stream.chunk] parts): the chunk
    is copied into a session-owned {!Hotpath_trace.Batch.t} and pushed
    as by {!push_batch}, with this function's name in the messages.  On
    [Error] — lint rejection, undeclared path id, invalid arrival byte,
    length mismatch, or a finished session — no session state has
    changed: counters, predictions, and the event stream are exactly as
    before the call, so a server can drop one bad client without
    poisoning the session-independent state it shares. *)

val push_batch : t -> Hotpath_trace.Batch.t -> (unit, string) result
(** {!push_chunk} over a decoded {!Hotpath_trace.Batch.t} — the same
    validation gate (incremental lint when enabled, id-range and
    arrival-code checks otherwise), the same no-state-change-on-[Error]
    contract, the same walker.  Pushing a batch filled from a chunk is
    bit-identical to pushing the chunk; the batch is read only during
    the call and may be refilled immediately after.
    @raise Invalid_argument when the batch's length exceeds its arrays
    (a length set by hand rather than through {!Hotpath_trace.Batch}). *)

val push : t -> path_id:int -> arrival:Path.head_kind -> (unit, string) result
(** Single-instance {!push_chunk}. *)

val instances : t -> int
(** Instances accepted so far. *)

val finish : t -> outcome list
(** Close the session: emit each lane's final event sample and return
    the outcomes in delay order — bit-identical to the batch engine run
    over the concatenation of everything pushed.  Idempotent; after
    [finish] every push returns [Error]. *)
