(** Trace recording: run the VM once, segment the transfer stream into
    interprocedural forward paths, and keep the whole execution as a dense
    sequence of path-instance ids.

    Everything the paper measures — path frequencies, hot sets, hit and
    noise rates for any scheme at any prediction delay, Dynamo cycle
    accounting — is then an O(trace) replay over the recorded arrays, with
    no re-interpretation.  This is what makes the full Figure 2/3 delay
    sweeps tractable (DESIGN.md §5). *)

module Cfg = Hotpath_cfg.Cfg

type descriptors = private {
  d_heads : int array;  (** Per path id: head block. *)
  d_branches : int array;  (** Per path id: branches on the path. *)
  d_blocks : int array;  (** Per path id: blocks on the path. *)
}
(** Per-path descriptors in dense arrays, the form the replay hot loop
    reads them in. *)

type loop_index = private {
  li_idx : int array;  (** Per loop-head event: instance index. *)
  li_occ : int array;
      (** Per loop-head event: occurrence count of the event's own path,
          that event included (running, trace-global). *)
  li_run_pid : int array;  (** Per run: the repeated path id. *)
  li_run_off : int array;  (** Per run: first event (index into [li_idx]). *)
  li_run_len : int array;  (** Per run: events in the run (>= 1). *)
  li_freq : int array;  (** Final execution count per path id. *)
}
(** The trace compressed to what the NET replay kernels consume: the
    loop-head event stream, grouped into maximal runs of consecutive
    events repeating one path, plus final frequencies.  A run split at
    any point is two shorter runs advancing the same counter, so
    chunk-sharded consumers may window it freely. *)

type t = private {
  program : Cfg.program;
  table : Path_table.t;
  instances : int array;  (** Path id per executed path instance, in order. *)
  arrivals : Bytes.t;
      (** Head kind per instance, encoded: 0 = loop head, 1 = entry,
          2 = continuation. *)
  vm_stats : Hotpath_vm.Vm.run_stats;
  cache_descriptors : descriptors option Atomic.t;
      (** Internal {!descriptors} cache — do not touch. *)
  cache_loop_index : loop_index option Atomic.t;
      (** Internal {!loop_index} cache — do not touch. *)
}

val record :
  ?max_steps:int ->
  ?max_paths:int ->
  ?max_stack:int ->
  Cfg.program ->
  Hotpath_vm.Behavior.t ->
  rng:Hotpath_util.Prng.t ->
  t
(** Interpret the program and record its paths.  [max_steps] bounds
    executed blocks; [max_paths] stops after that many completed path
    instances.  Only {e completed} paths are recorded: a partial path cut
    off by fuel or the instance budget is discarded (a truncated prefix
    could collide with a genuine path that continues through bit-less
    transfers), while a path terminated by program exit is completed with
    end kind [Program_end].  For naturally exiting programs, concatenating
    the recorded paths' blocks reproduces the executed block sequence
    exactly. *)

type chunked_summary = {
  cs_instances : int;  (** Completed path instances recorded. *)
  cs_paths : int;  (** Distinct paths interned. *)
  cs_vm_stats : Hotpath_vm.Vm.run_stats;
}

val default_chunk_instances : int
(** Instances per flushed chunk when none is given (65,536). *)

val record_chunked :
  ?max_steps:int ->
  ?max_paths:int ->
  ?max_stack:int ->
  ?chunk_instances:int ->
  Cfg.program ->
  Hotpath_vm.Behavior.t ->
  rng:Hotpath_util.Prng.t ->
  flush:(table:Path_table.t -> ids:int array -> arrivals:Bytes.t -> unit) ->
  finish:(table:Path_table.t -> vm_stats:Hotpath_vm.Vm.run_stats -> unit) ->
  chunked_summary
(** Incremental-flush recording: interpret the program exactly as
    {!record} does, but hand completed instances to [flush] in chunks of
    [chunk_instances] instead of materializing the whole stream.  [flush]
    receives the (shared, still-growing) path table plus the chunk's
    instance ids and arrival codes — each id references a path already in
    the table at flush time.  [flush] is called only with non-empty
    chunks, in trace order; [finish] is called exactly once, after the
    final flush, with the complete table and the VM statistics (also for
    an empty trace).  Peak memory is O(paths + chunk), not O(trace):
    together with {!Serialize.Stream} this is what lets paper-scale runs
    be recorded and replayed without ever holding the instance stream.
    The interning order, ids, and statistics are identical to {!record}'s
    at every chunk size.
    @raise Invalid_argument when [chunk_instances < 1]. *)

val arrival_of_code : char -> Path.head_kind
(** Decode an arrival byte (the encoding of the [arrivals] field and of
    streamed chunks): 0 = loop head, 1 = entry, 2 = continuation.
    @raise Invalid_argument on any other byte. *)

val of_parts :
  program:Cfg.program ->
  table:Path_table.t ->
  instances:int array ->
  arrivals:Bytes.t ->
  vm_stats:Hotpath_vm.Vm.run_stats ->
  (t, string) result
(** Reassemble a recording (deserialization support).  Validates that the
    program is well-formed, every instance id is a table path, arrival
    codes are in range and as numerous as the instances, and every path's
    blocks exist in the program — then runs the full trace linter
    ([Hotpath_trace.Lint.check_parts]): transfer legality, arrival
    consistency, head-set membership, end-kind plausibility.  Any
    error-severity finding rejects the parts (first finding as the
    message); warnings (e.g. metadata that disagrees with a rescaled
    program) are tolerated — retrieve them with {!lint}. *)

val lint : t -> Hotpath_analysis.Diag.t list
(** Re-run the trace linter on an assembled recording.  Recordings made
    by {!record} and loads accepted by {!of_parts} report no
    error-severity findings; warnings may remain. *)

val num_instances : t -> int
(** Total flow: the number of path executions (the paper's [Flow]). *)

val num_paths : t -> int
(** Distinct paths (the paper's #Paths). *)

val instance_path : t -> int -> Path.t
(** Path executed by instance [i]. *)

val arrival : t -> int -> Path.head_kind

val descriptors : t -> descriptors
(** Per-path head/branch-count/block-count arrays.  Computed on first
    use and cached in the recording (atomically — replay is fanned out
    over domains), so the per-traversal cost replay used to pay is paid
    once per recording. *)

val loop_index : t -> loop_index
(** The loop-head event/run compression of the trace, computed on first
    use and cached like {!descriptors}.  Replaying a recording many
    times (delay sweeps, repeated [?jobs] runs) then never re-walks the
    raw instance stream for NET — the kernels read the runs directly.
    Costs a few words per loop-head event, held for the recording's
    lifetime. *)

val frequencies : t -> int array
(** Execution count per path id — the paper's [freq(p)]. *)

val head_arrival_counts : t -> (Cfg.block_id, int) Hashtbl.t
(** Per head block: how many instances arrived at it via a backward taken
    transfer — the counter values a NET profiler with an infinite delay
    would accumulate. *)

val unique_loop_heads : t -> int
(** Distinct blocks ever arrived at as loop heads — NET's dynamic counter
    space. *)

val block_trace : t -> Cfg.block_id list
(** The executed block sequence, reconstructed by concatenating path
    blocks.  Intended for tests (linear in trace length but builds a
    list — do not call on large traces). *)
