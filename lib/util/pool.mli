(** Domain-based work pool for experiment fan-out.

    [map ~jobs f xs] applies [f] to every element of [xs], running up to
    [jobs] domains concurrently (the calling domain included), and returns
    the results {e in input order} — parallelism never changes what a
    caller observes, only how fast it arrives.  The worker count is capped
    at the machine's domain budget ({!Domain.recommended_domain_count},
    or {!with_domain_limit}), so over-asking on a small machine degrades
    gracefully; [jobs = 1] runs inline with no domain machinery at all.

    The unit of work is coarse — one benchmark's recording, one figure
    cell, one serve client — never a slice of a single replay: replay is
    one serial walk, because fanning its chunks over domains measured
    slower than walking them inline (EXPERIMENTS.md).

    If a job raises, the remaining queued jobs are abandoned, every worker
    is drained, and the first exception is re-raised in the caller.

    [f] runs on other domains: it must not touch domain-unsafe shared
    mutable state.  The experiment layer's shared recording cache
    ({!Hotpath_experiments.Runs}) is mutex-guarded for exactly this
    caller. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1 — a sensible
    [--jobs] default for CPU-bound sweeps.  Honours
    {!with_domain_limit}. *)

val with_domain_limit : int -> (unit -> 'a) -> 'a
(** [with_domain_limit n f] runs [f] with the machine's domain budget
    overridden to [n] (both directions: [1] simulates a single-core
    machine; a large [n] forces real multi-domain fan-out on small CI
    hosts — the way to get a known number of concurrent workers, e.g.
    for a barrier test).  Affects {!default_jobs} and every {!map} for
    the dynamic extent of [f]; restored on exit, exceptions included.
    The override is process-global — intended for tests and benches,
    not for concurrent production use.
    @raise Invalid_argument when [n < 1]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Runs [min jobs (available domains) (length xs)] workers.
    @raise Invalid_argument when [jobs < 1]. *)

val map_array : jobs:int -> ('a -> 'b) -> 'a array -> 'b array

val iter : jobs:int -> ('a -> unit) -> 'a list -> unit
