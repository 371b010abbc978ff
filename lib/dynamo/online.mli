(** The live Dynamo driver: interpret, segment, predict, and account in
    one pass — no recording step.

    This is how a deployed system runs (the record-once/replay-many split
    used by the experiments is an analysis optimization).  The driver runs
    the recorder's own loop ([Hotpath_trace.Recorder.run]: VM, segmenter,
    growing path table) and sends each completed path instance straight
    through the same {!Engine.Stepper} the offline replay uses, so for
    equal seeds the online run and [Engine.run] over a recording produce
    {e identical} results — tested, and the strongest evidence that the
    replay methodology is faithful. *)

module Cfg = Hotpath_cfg.Cfg

type outcome = {
  o_result : Engine.result;
  o_instances : int;  (** Completed path instances processed. *)
  o_paths : int;  (** Distinct paths interned along the way. *)
}

val run :
  ?max_steps:int ->
  ?max_paths:int ->
  ?max_stack:int ->
  config:Engine.config ->
  Cfg.program ->
  Hotpath_vm.Behavior.t ->
  rng:Hotpath_util.Prng.t ->
  outcome
(** Drive the program live under the configured prediction scheme.
    [max_steps] bounds executed blocks, [max_paths] completed instances. *)
