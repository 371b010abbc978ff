(** Replay a recorded trace through an online prediction scheme.

    The engine models a dynamic compilation system: instances of a path
    that has already been predicted execute inside the code cache and are
    {e not} observed by the scheme (no profiling cost); every other
    instance is profiled.  A prediction made at instance [i] takes effect
    for instances after [i] — the triggering instance itself is still
    profiled flow, giving the paper's [captured = freq - τ] accounting for
    path-profile-based prediction.

    Every entry point — in-memory, streamed and mapped — creates one
    {!Session.Engine} for all of its delay lanes and walks the instance
    stream through it once, serially, in trace order.  There is no
    second engine and no replay-level scheduling option. *)

type prediction = Session.prediction = {
  target : int;  (** Predicted path id. *)
  at_instance : int;  (** Trace position where the prediction fired. *)
}
(** Shared with {!Session} — the online push API over the same walker —
    so batch and session results compare directly. *)

type outcome = Session.outcome = {
  scheme_name : string;
  delay : int;
  total_instances : int;
  predictions : prediction array;  (** In firing order. *)
  predicted_at : int array;
      (** Per path id: the instance index at which it was predicted, or
          [max_int] if never. *)
  freq : int array;  (** Per path id: total executions (freq(p)). *)
  captured : int array;
      (** Per path id: executions strictly after its prediction — the flow
          a real system would run from the code cache. *)
  profiled_instances : int;  (** Instances observed by the scheme. *)
  captured_instances : int;  (** Sum of [captured]. *)
  counter_space : int;
  profiling_ops : int;
  collection_ops : int;
}

(** {1 Observability}

    Replay optionally emits one {!Hotpath_util.Events.replay_window}
    sample per [window] instances per delay lane, plus a final sample so
    the last window's cumulative fields always equal the outcome's
    totals.  Sampling is observation only: outcomes are byte-identical
    with events on and off (property-tested), a disabled sampler costs
    nothing per instance, and an enabled one does all its work at window
    boundaries, where the engine cuts its slices. *)

type events

val default_events_window : int
(** 32,768 instances — large enough that per-window emission stays well
    under 1% of replay throughput. *)

val events :
  ?window:int -> ?is_hot:(int -> bool) -> Hotpath_util.Events.sink -> events
(** [events sink] configures window sampling into [sink].  Passing the
    {!Hotpath_util.Events.null} sink is the same as passing no events at
    all — sampling is skipped entirely.  [is_hot]
    (ground-truth hot-set membership by path id) enables the cumulative
    [hits]/[noise] fields; without it they are omitted — a streamed
    replay cannot know the hot set mid-pass.
    @raise Invalid_argument when [window < 1]. *)

val run :
  ?events:events ->
  Scheme.packed ->
  delay:int ->
  Hotpath_trace.Recorder.t ->
  outcome
(** @raise Invalid_argument when [delay < 1]. *)

val run_many :
  ?events:events ->
  Scheme.packed ->
  delays:int list ->
  Hotpath_trace.Recorder.t ->
  outcome list
(** Multiplexed replay: one scheme state per delay, all driven through a
    {e single} serial traversal of the instance stream.  Returns one
    outcome per delay, in the given order, each bit-identical to the
    corresponding [run ~delay] — the scheme states are independent, so
    multiplexing is purely an amortization of the trace walk (delay
    sweeps drop from O(delays × trace) to O(trace) instance reads).
    {!instance_reads} counts the traversal once ([+ length trace]).
    Parallelism belongs a level up: the experiment layer fans whole
    benchmarks over domains ({!Hotpath_util.Pool}).
    @raise Invalid_argument when any delay is [< 1]. *)

(** {1 Engines}

    Every surface — {!run_many}, the streamed and mapped readers, and
    {!Session} (hence [hotpath serve]) — replays through the same
    per-scheme engine, {!Session.Engine}.  The built-in schemes
    ({!Net}, {!Net.Net_once}, {!Net.Last_executed_tail},
    {!Path_profile}, and the k-iteration families {!Net_k} and
    {!Path_profile_k}) run a kernel that flattens the scheme's
    hashtable state into dense arrays and inlines its logic into the
    lane loop.  A built-in is recognized by the physical identity of the
    packed [observe] (of [create] for the k-families, whose [observe] is
    one closure shared across every k), so wrapping or re-deriving a
    scheme safely falls back to the generic walker, which calls the
    scheme's own [observe] per profiled instance.  The kernels are
    property-tested byte-identical to the generic walker; [bench kernel]
    measures the spread. *)

(** The generic walker over a statically known scheme: never dispatched
    to a kernel, so [Make (Net)] is the reference the NET kernel is
    tested against. *)
module Make (S : Scheme.S) : sig
  val run :
    ?events:events -> delay:int -> Hotpath_trace.Recorder.t -> outcome

  val run_many :
    ?events:events ->
    delays:int list ->
    Hotpath_trace.Recorder.t ->
    outcome list
end

val run_stream :
  ?events:events ->
  Scheme.packed ->
  delay:int ->
  Hotpath_trace.Serialize.Stream.reader ->
  (outcome, string) result
(** Streamed replay: drive the scheme from an HOTPATH3 chunk iterator
    instead of a materialized recording.  Field-by-field identical to
    [run ~delay] on the recording the stream serializes, but peak memory
    is O(paths + chunk) — the instance stream is never held.  Decode
    errors from the stream surface as [Error]; the reader is left
    positioned at the failure (poisoned).
    @raise Invalid_argument when [delay < 1]. *)

val run_many_stream :
  ?events:events ->
  Scheme.packed ->
  delays:int list ->
  Hotpath_trace.Serialize.Stream.reader ->
  (outcome list, string) result
(** Multiplexed streamed replay; single traversal of the chunk stream,
    one outcome per delay, each identical to the materialized
    [run ~delay].  An empty [delays] returns [Ok []] without touching
    the reader.  Each decoded instance frame is walked through the one
    engine as it arrives; lane state carries across frame seams, and
    {!instance_reads} counts the stream once.
    @raise Invalid_argument when any delay is [< 1]. *)

val run_mapped :
  ?events:events ->
  Scheme.packed ->
  delay:int ->
  Hotpath_trace.Serialize.Stream.Mapped.t ->
  (outcome, string) result
(** {!run_stream} over the zero-copy mapped reader
    ({!Hotpath_trace.Serialize.Stream.Mapped}): frames are validated and
    decoded in place out of the mapping, one instance frame at a time
    into a reused dense batch — no [Bytes] copy per frame, no per-chunk
    array allocation.  Outcomes, counter registries, and event streams
    are byte-identical to {!run_stream} on the same bytes.
    @raise Invalid_argument when [delay < 1]. *)

val run_many_mapped :
  ?events:events ->
  Scheme.packed ->
  delays:int list ->
  Hotpath_trace.Serialize.Stream.Mapped.t ->
  (outcome list, string) result
(** Multiplexed {!run_mapped}; the mapped counterpart of
    {!run_many_stream}, with the same byte-identity guarantees.
    @raise Invalid_argument when any delay is [< 1]. *)

val instance_reads : unit -> int
(** Total instance-stream reads performed by every replay in this
    module since the last {!reset_instance_reads} — the observable
    backing the one-pass guarantee of {!run_many} ([run_many ~delays]
    adds [length trace], not [length delays * length trace]). *)

val reset_instance_reads : unit -> unit

val predicted_paths : outcome -> int list
(** Path ids predicted, ascending. *)

val pp_summary : Format.formatter -> outcome -> unit
