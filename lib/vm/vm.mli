(** Trace-producing interpreter for the virtual CFG ISA.

    One {!step} executes the current basic block and performs its
    terminator.  It allocates nothing: the transfer it made is left in
    the VM's own mutable fields ([src], [kind], [taken], [dst],
    [backward]), where the path segmenter reads it, and the VM keeps
    its own {!run_stats} counters.  Conditional and indirect outcomes
    come from the {!Behavior.Decider}; the call stack lives here.
    {!run} wraps each transfer in a {!transfer} record for the offline
    profilers and tests. *)

module Cfg = Hotpath_cfg.Cfg

type transfer_kind =
  | T_branch  (** Conditional direct branch; the outcome is [taken]. *)
  | T_jump
  | T_indirect
  | T_call  (** Destination is the callee entry. *)
  | T_return  (** Destination is the caller's return-to block. *)
  | T_exit  (** Program termination; no destination. *)

type t = private {
  program : Cfg.program;
  decider : Behavior.Decider.t;
  max_stack : int;
  mutable stack : Cfg.block_id array;  (** Return-to blocks, [\[0, depth)]. *)
  mutable depth : int;
  mutable current : Cfg.block_id;  (** Block about to execute; [-1] after exit. *)
  mutable executed : int;  (** Blocks executed. *)
  mutable src : Cfg.block_id;  (** Last transfer: block just executed. *)
  mutable kind : transfer_kind;  (** Last transfer: its kind. *)
  mutable taken : bool;  (** Last transfer: a [T_branch]'s outcome. *)
  mutable dst : Cfg.block_id;  (** Last transfer: destination, [-1] for [T_exit]. *)
  mutable backward : bool;  (** Last transfer: lands at an address [<=] [src]. *)
  mutable branches : int;
  mutable calls : int;
  mutable returns : int;
  mutable indirects : int;
  mutable backward_transfers : int;
  mutable max_depth : int;  (** Deepest call stack reached. *)
}
(** Interpreter state.  The last-transfer fields are meaningful after a
    {!step} that returned [true]. *)

type transfer = {
  src : Cfg.block_id;  (** Block just executed. *)
  kind : transfer_kind;
  taken : bool;  (** Outcome of a [T_branch]; [false] for every other kind. *)
  dst : Cfg.block_id option;  (** [None] only for [T_exit]. *)
  backward : bool;
      (** True when the transfer lands at an address [<=] the source — the
          paper's criterion for a path-terminating transfer and for the
          destination being a potential path head. *)
}

val create : ?max_stack:int -> Cfg.program -> Behavior.t -> rng:Hotpath_util.Prng.t -> t
(** Interpreter positioned at the main procedure's entry.  [max_stack]
    bounds call depth (default 10_000).
    @raise Invalid_argument when the program fails {!Cfg.validate} (the
    builder validates on [finish], but programs can also arrive from
    deserialization or hand construction) or the behaviour fails
    {!Behavior.validate}. *)

val step : t -> bool
(** Execute one block and its terminator, leaving the transfer in the
    last-transfer fields; [false] (and no change) once the program has
    exited.  A [Return] with an empty call stack terminates the program
    (reported as [T_exit]).
    @raise Failure on call-stack overflow. *)

val blocks_executed : t -> int

val stack_depth : t -> int

type run_stats = {
  reason : [ `Exited | `Fuel ];
  blocks : int;  (** Blocks executed. *)
  branches : int;  (** Conditional branches executed. *)
  calls : int;
  returns : int;
  indirects : int;
  backward_transfers : int;
  max_stack : int;
}

val pp_run_stats : Format.formatter -> run_stats -> unit

val stats : t -> run_stats
(** The VM's counters so far; [reason] is [`Exited] once the program has
    exited, else [`Fuel]. *)

val run : ?max_steps:int -> t -> on_transfer:(transfer -> unit) -> run_stats
(** Drive {!step} until exit or until [max_steps] blocks have executed
    (default unbounded), invoking [on_transfer] on every transfer in
    order.  The reason is [`Fuel] whenever the budget is spent, even by
    the exiting block. *)
