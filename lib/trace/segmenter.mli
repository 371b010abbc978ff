(** Streaming path segmentation.

    Turns the VM's transfer stream into the paper's interprocedural
    forward paths, one completed path at a time — the core of the
    {!Recorder}, which every recording and the live Dynamo driver run on.

    The path under construction is kept the way the paper's Section 5
    prices bit tracing: as registers, not as a data structure.  Its
    signature is four ints — head, branch count, branch bits (62 fit an
    OCaml int) and a running hash of the indirect targets
    ({!Signature.mix_indirect}) — and its blocks and indirect targets go
    into buffers reused from path to path.  Nothing is allocated per
    block or per path: {!Path_table.intern_completed} probes on the key
    and materializes {!signature} and {!blocks} only for a new path.

    Path-end rules (Section 3 of the paper; see {!Path}): backward taken
    transfers, returns matching an on-path call, the signature cap, and
    program exit.  A forward return the path extends across contributes
    its dynamic target to the signature's indirect list (see DESIGN.md
    §5). *)

module Cfg = Hotpath_cfg.Cfg

type t = private {
  weights : int array;  (** Block weight by id. *)
  mutable head : Cfg.block_id;
  mutable n_branches : int;
  mutable bits : int;  (** Bit [i] = outcome of the [i]-th branch. *)
  mutable indirect_hash : int;  (** {!Signature.mix_indirect} over the targets. *)
  mutable indirect_buf : Cfg.block_id array;
  mutable n_indirects : int;  (** Indirect targets, [indirect_buf.(0 .. n-1)]. *)
  mutable block_buf : Cfg.block_id array;
  mutable n_blocks : int;  (** Blocks, head first, [block_buf.(0 .. n-1)]. *)
  mutable n_instrs : int;  (** Sum of the blocks' weights. *)
  mutable arrival : Path.head_kind;  (** How the head was reached. *)
  mutable end_kind : Path.end_kind;  (** Of the path {!feed} just completed. *)
  mutable calls_on_path : int;
  mutable next_head : Cfg.block_id;
  mutable next_arrival : Path.head_kind;
  mutable exited : bool;
}
(** Segmentation state.  After {!feed} returns [true] the fields from
    [head] to [end_kind] describe the completed path, until the next
    {!feed} starts the following one. *)

val create : Cfg.program -> t
(** Segmentation state positioned at the program entry (arrival kind
    [Entry]). *)

val feed : t -> Hotpath_vm.Vm.t -> bool
(** Consume the transfer the VM's last {!Hotpath_vm.Vm.step} made (call
    once per step, in execution order); [true] when it completed a path.
    After a [T_exit] transfer the segmenter yields the final path and
    any further [feed] is rejected.
    @raise Invalid_argument when fed past program exit. *)

val next : t -> Hotpath_vm.Vm.t -> max_steps:int -> bool
(** Step the VM and {!feed} each transfer until a path completes
    ([true]), or until the VM has executed [max_steps] blocks in all or
    has exited ([false]).  The recording loop: one call per path, so the
    per-block work stays inside this module and {!Hotpath_vm.Vm.step}. *)

val in_flight_blocks : t -> int
(** Blocks accumulated on the current partial path (0 after exit). *)

val blocks : t -> Cfg.block_id array
(** Fresh copy of the completed path's blocks, head first. *)

val signature : t -> Signature.t
(** The completed path's signature, materialized. *)
