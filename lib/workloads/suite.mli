(** The benchmark suite: nine synthetic workloads standing in for the
    paper's SpecInt95 programs plus deltablue.

    Each benchmark couples a generator spec (calibrated so the recorded
    trace reproduces the *shape* of the paper's Tables 1 and 2 — relative
    path counts, hot-set sizes, hot-flow coverage, head density) with the
    paper's published numbers for paper-vs-measured reporting.

    Flow is scaled: the paper's runs execute billions of paths on a 1999
    PA-RISC testbed; [record ~scale:1.0] records [100 * Flow(M)] path
    instances (≈ 0.3–4.0 x 10^5 per benchmark), enough for every rate in
    the evaluation to stabilize while keeping the full Figure 2/3 sweep
    tractable. *)

module Recorder = Hotpath_trace.Recorder

type paper_row = {
  pr_paths : int;  (** Table 1 #Paths. *)
  pr_flow_m : int;  (** Table 1 Flow (millions). *)
  pr_hot_paths : int;  (** Table 1: #Paths of the 0.1% hot set. *)
  pr_hot_flow_pct : float;  (** Table 1 %Flow. *)
  pr_unique_heads : int;  (** Table 2 #Unique path heads. *)
  pr_in_dynamo : bool;
      (** Included in Figure 5 (Dynamo runs without bail-out). *)
}

type benchmark = {
  b_name : string;
  b_description : string;
  b_spec : Generator.t;
  b_seed : int;
  b_flow : int;  (** Path instances to record at [scale = 1.0]. *)
  b_paper : paper_row;
}

val all : benchmark list
(** In the paper's Table 1 order: compress, gcc, go, ijpeg, li, m88ksim,
    perl, vortex, deltablue. *)

val names : string list

val find : string -> benchmark option

val find_exn : string -> benchmark
(** @raise Invalid_argument for an unknown name. *)

val dynamo_set : benchmark list
(** The Figure 5 subset (no bail-out): compress, m88ksim, perl, li,
    deltablue. *)

val program : benchmark -> Hotpath_cfg.Cfg.program
(** Just the generated program (no recording) — what [hotpath check]
    and the static analyses consume.  Deterministic in [b_seed], and
    identical to the program {!record} runs. *)

val record : ?scale:float -> benchmark -> Recorder.t
(** Generate the program and record [scale * b_flow] path instances
    (default scale 1.0, minimum 1000 instances).  Deterministic in
    [b_seed]. *)

val record_stream :
  ?scale:float ->
  ?chunk_instances:int ->
  ?events:Hotpath_util.Events.sink ->
  benchmark ->
  sink:(string -> unit) ->
  Recorder.chunked_summary
(** {!record} straight to an HOTPATH3 sink
    ({!Hotpath_trace.Serialize.Stream.record}): the instance stream is
    flushed as it is produced and never materialized.  Same budgets and
    seeds as {!record}, so the stream decodes to the same recording:
    the same program, path table, instances, arrivals and VM stats.
    The bytes are not those of
    [Serialize.Stream.to_string (record ~scale b)]: the streaming
    recorder writes each chunk's newly declared paths just before that
    chunk, so paths frames fall between instance frames, where
    [to_string] writes the finished table before the first one. *)

val hot_threshold : float
(** The paper's hot threshold: 0.001 (0.1% of total flow). *)

val phased_demo : Generator.t
(** The phase-change workload of Section 6.1's discussion: six strongly
    dominant loops whose dominant directions flip every 300k blocks.  Used
    by the phase-metrics experiment, the flush tests, and
    [examples/phase_changes.ml]. *)

val record_phased : ?max_paths:int -> ?seed:int -> unit -> Recorder.t
(** Record {!phased_demo} (defaults: 120k instances, the example's seed). *)
