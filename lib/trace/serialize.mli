(** Versioned binary serialization of recorded traces.

    Recording is the expensive step (one full interpretation); persisting
    the result lets a trace be recorded once and replayed by any number of
    analysis processes — `hotpath record`/`--trace` style workflows.

    Two on-disk formats coexist:

    - {b HOTPATH2} — the legacy single-blob format: program (blocks,
      terminators, procedures), interned path table, the instance and
      arrival arrays, and the VM run statistics, parsed from one
      contiguous string.
    - {b HOTPATH3} — the {!Stream} format: the same field encodings, but
      framed into length-prefixed, CRC-32-protected chunks (program
      header, incremental path-table frames, instance/arrival chunks of
      {!Stream.default_chunk_instances} instances, and an end frame with
      the VM statistics and totals).  Both ends are constant-memory: the
      writer flushes as it goes, the reader holds one frame at a time, so
      traces far larger than RAM can be recorded and replayed.

    All integers are little-endian.  Bounded ids and lengths are 32-bit
    and writing raises [Invalid_argument] if a value does not fit (no
    silent truncation); unbounded counts (block weights, per-path
    instruction counts, instance totals, VM statistics) are 64-bit.
    Loading validates structure (via {!Recorder.of_parts} — which since
    the lint hook also runs the full trace linter, [Hotpath_trace.Lint]
    — or the streaming reader's incremental checks) and fails with a
    message rather than crashing on corrupt input — the serializer fuzz
    suite holds both parsers to that.  For diagnostics instead of a
    bare error message, lint a file with [Hotpath_trace.Check.file]. *)

module Cfg = Hotpath_cfg.Cfg

val magic : string
(** The legacy single-blob magic, ["HOTPATH2"]. *)

val write : Recorder.t -> Buffer.t -> unit
(** Append the serialized recording (HOTPATH2).
    @raise Invalid_argument if a 32-bit field (id, length) overflows. *)

val read : string -> pos:int -> (Recorder.t * int, string) result
(** [read s ~pos] parses a HOTPATH2 recording serialized at offset [pos]
    of [s]; returns the recording and the offset just past it. *)

val to_string : Recorder.t -> string
(** HOTPATH2 blob. *)

val of_string : string -> (Recorder.t, string) result
(** Requires the whole string to be exactly one recording, in either
    format (dispatched on the magic). *)

val save : Recorder.t -> path:string -> unit
(** Write an HOTPATH2 file.  @raise Sys_error on I/O failure.  Prefer
    {!Stream.save} for new traces. *)

val load : path:string -> (Recorder.t, string) result
(** Read back from a file in either format; I/O errors are returned as
    [Error].  HOTPATH3 files are read frame-by-frame — peak memory is
    O(frame) beyond the materialized result — while HOTPATH2 falls back
    to the whole-file parser. *)

(** The HOTPATH3 framed stream format.

    Layout: the magic ["HOTPATH3"], then frames of
    [kind:u8 | payload_len:i32le | payload | crc32:u32le], the CRC-32
    (IEEE) covering the five header bytes and the payload.  Frame kinds:

    - {e 0, program} — exactly one, first: the {!Cfg.program}.
    - {e 1, paths} — path-table records in dense id order; may appear
      repeatedly, each frame extending the table.  Written incrementally,
      so a recording being flushed mid-run only ships the paths that are
      new since the previous flush.
    - {e 2, instances} — a chunk: instance count [n], [n] path ids
      (each already declared by a preceding paths frame), [n] arrival
      bytes.
    - {e 3, end} — exactly one, last: VM statistics plus total instance
      and path counts, cross-checked against what the stream carried.

    A reader never holds more than one frame; a writer never buffers more
    than one frame.  Any torn write, bit flip, corrupted length field, or
    truncation surfaces as [Error] at read time — the CRC makes every
    single-byte corruption of a valid stream detectable, which the fuzz
    suite exercises. *)
module Stream : sig
  val magic : string
  (** ["HOTPATH3"]. *)

  val default_chunk_instances : int
  (** Instances per chunk when none is given (65,536 — a few hundred KB
      per frame). *)

  val max_frame_payload : int
  (** Upper bound on a single frame's payload (64 MiB); larger path
      tables and chunks are split across frames by the writer, and a
      corrupt length field past the bound is rejected without
      allocation. *)

  (** {1 Writing} *)

  type writer

  val writer : (string -> unit) -> program:Cfg.program -> writer
  (** [writer sink ~program] emits the magic and the program frame to
      [sink] and returns a writer for incremental flushing.  [sink] is
      called with consecutive byte slices (e.g. [output_string oc].)
      @raise Invalid_argument if the program fails {!Cfg.validate}. *)

  val write_chunk :
    writer -> table:Path_table.t -> ids:int array -> arrivals:Bytes.t -> unit
  (** Flush one chunk: any table paths not yet on the wire are emitted
      first (as paths frames), then the instances.  Matches the contract
      of {!Recorder.record_chunked}'s [flush] callback.  Ids are not
      re-validated here — the reader enforces that every id is declared.
      @raise Invalid_argument on arrival/id length mismatch or after
      [finish]. *)

  val finish :
    writer -> table:Path_table.t -> vm_stats:Hotpath_vm.Vm.run_stats -> unit
  (** Emit any remaining paths and the end frame.  Must be called exactly
      once; the stream is invalid without it (a crash mid-write is
      detected as a truncated stream at read time).
      @raise Invalid_argument if already finished. *)

  val write : ?chunk_instances:int -> Recorder.t -> (string -> unit) -> unit
  (** Serialize a whole materialized recording to a sink in chunks. *)

  val to_string : ?chunk_instances:int -> Recorder.t -> string

  val save : ?chunk_instances:int -> Recorder.t -> path:string -> unit
  (** @raise Sys_error on I/O failure. *)

  val record :
    ?max_steps:int ->
    ?max_paths:int ->
    ?max_stack:int ->
    ?chunk_instances:int ->
    ?events:Hotpath_util.Events.sink ->
    Cfg.program ->
    Hotpath_vm.Behavior.t ->
    rng:Hotpath_util.Prng.t ->
    sink:(string -> unit) ->
    Recorder.chunked_summary
  (** Record straight to a sink: {!Recorder.record_chunked} wired to a
      {!writer}.  The instance stream is never materialized — peak memory
      is O(paths + chunk) however long the run — and the resulting stream
      is byte-identical to [write (Recorder.record ...)] at the same
      chunk size.  A live [events] sink gets one [record_chunk] per
      flushed chunk (cumulative instances/paths/bytes) and a final
      [record_done]; the trace bytes are unaffected. *)

  (** {1 Reading} *)

  type chunk = {
    ids : int array;  (** Path ids, trace order. *)
    arrivals : Bytes.t;  (** One arrival code per id (decode with
        {!Recorder.arrival_of_code}). *)
  }

  type reader

  val open_string : string -> (reader, string) result
  (** Validate the magic and program frame of an in-memory stream. *)

  val open_file : path:string -> (reader, string) result
  (** Same over a file, reading frame-by-frame. *)

  val of_recorder : ?chunk_instances:int -> Recorder.t -> reader
  (** Reader over an in-memory recording (serialized through the full
      format), mainly for differential tests and benchmarks. *)

  val next : reader -> (chunk option, string) result
  (** Pull the next instance chunk.  Paths frames are consumed silently,
      growing {!table}; [Ok None] is returned once the end frame has been
      validated (totals, statistics, no trailing bytes) and on every call
      thereafter.  After an [Error] the reader is poisoned and repeats
      the same error. *)

  val program : reader -> Cfg.program

  val table : reader -> Path_table.t
  (** The path table as declared so far; grows as chunks are pulled.
      Every id in a returned chunk is already present. *)

  val instances_read : reader -> int
  (** Cumulative instances across the chunks returned so far. *)

  val vm_stats : reader -> Hotpath_vm.Vm.run_stats option
  (** [Some] once the end frame has been read (i.e. after {!next}
      returned [Ok None]). *)

  val close : reader -> unit
  (** Release the underlying channel (idempotent; no-op for string
      readers). *)

  val to_recorder : reader -> (Recorder.t, string) result
  (** Drain the stream into a materialized {!Recorder.t} (validated via
      {!Recorder.of_parts}) and close the reader. *)

  (** {1 Push-based incremental decoding}

      The {!reader} above pulls bytes through a blocking [input]; a
      network daemon gets bytes pushed at it in arbitrary slices instead.
      A {!Decoder.t} accepts those slices via {!Decoder.feed} and yields
      decoded steps via {!Decoder.next} — same frame validation, same
      payload parsers, same error messages as the pull reader, so the two
      accept exactly the same byte streams.  Feeding is O(bytes) amortized
      regardless of slice granularity (one byte at a time is fine). *)
  module Decoder : sig
    type step =
      | Need_more  (** A complete next frame has not arrived yet. *)
      | Program of Cfg.program
          (** The stream header and program frame decoded and validated. *)
      | Chunk of chunk  (** One instances frame. *)
      | End of Hotpath_vm.Vm.run_stats
          (** The end frame validated (totals cross-checked); returned
              again by subsequent calls. *)

    type t

    val create : unit -> t

    val feed : t -> string -> pos:int -> len:int -> unit
    (** Append [len] bytes of [s] starting at [pos] to the decode buffer.
        Ignored once the decoder has errored.
        @raise Invalid_argument if [pos]/[len] do not describe a
        substring. *)

    val next : t -> (step, string) result
    (** Decode as far as the buffered bytes allow.  Paths frames are
        consumed silently (growing {!table}); call repeatedly until
        [Ok Need_more] (or terminally [End]/[Error]).  After an [Error]
        the decoder is poisoned and repeats the same error.  Bytes that
        arrive after the end frame surface as a trailing-garbage error on
        the call after they are fed. *)

    val program : t -> Cfg.program option
    (** [Some] once the program frame has decoded. *)

    val table : t -> Path_table.t
    (** Paths declared so far; every id in a returned {!chunk} is already
        present. *)

    val instances_read : t -> int

    val buffered : t -> int
    (** Bytes fed but not yet consumed by a decoded frame. *)

    val finished : t -> bool
    (** The end frame has been validated. *)

    val error : t -> string option

    (** {2 Batched decoding}

        {!next} cuts one payload string and allocates fresh [ids] and
        [arrivals] per instance frame.  {!next_batch} instead validates
        and decodes instance frames straight out of the internal buffer
        into a caller-supplied (reusable) {!Batch.t} — ids range-checked,
        arrival bytes copied as codes — accepting and rejecting
        exactly the same streams.  Cold frames (program, paths, end) go
        through the shared payload parsers unchanged. *)

    type batch_step =
      | B_need_more  (** A complete next frame has not arrived yet. *)
      | B_program of Cfg.program
      | B_batch  (** One instances frame, decoded into the batch. *)
      | B_end of Hotpath_vm.Vm.run_stats

    val next_batch : t -> Batch.t -> (batch_step, string) result
    (** As {!next}, filling [batch] instead of allocating a {!chunk}.
        The batch contents are valid until the next [next_batch] call
        with the same batch. *)
  end

  (** {1 Zero-copy mapped reading}

      A {!Mapped.t} reads a HOTPATH3 stream from a [Bigarray]-backed
      buffer — a memory-mapped file via {!Mapped.map_file}, or any
      in-memory bigstring — validating each frame's bounds and CRC-32
      against the mapped region directly and decoding instance frames
      straight into a reusable {!Batch.t}.  No [Bytes.blit] per frame,
      no per-chunk allocation: the kernel pages the file in behind the
      sequential scan, and the only per-frame copies are the cold
      program/paths/end payloads handed to the shared parsers.  Frame
      windowing is preserved — a consumer holds one decoded frame of
      state at a time, so replaying through {!Session} keeps peak heap
      at O(paths + frame) even though the file mapping is as large as
      the file. *)
  module Mapped : sig
    type bigstring = Hotpath_util.Crc32.bigstring

    type t

    val map_file : path:string -> (t, string) result
    (** Map a HOTPATH3 file read-only and validate its magic and program
        frame.  Non-regular files (pipes, sockets, directories) return
        [Error] — stream those through {!open_file}/{!Decoder} instead.
        The mapping is released when the reader is garbage-collected. *)

    val of_bigstring : bigstring -> (t, string) result
    (** Wrap an incoming buffer without copying it.  The caller must not
        mutate the buffer while the reader is live. *)

    val of_string : string -> (t, string) result
    (** Copy [s] into a fresh bigstring and wrap it (tests, small
        buffers). *)

    val next_batch : t -> Batch.t -> (bool, string) result
    (** Decode frames up to and including the next instance frame into
        [batch].  [Ok true]: the batch holds the frame's instances.
        [Ok false]: the end frame was validated (totals cross-checked,
        no trailing bytes) — {!vm_stats} is now [Some] — and every later
        call returns [Ok false] again.  After an [Error] the reader is
        poisoned and repeats the same error.  Validation matches the
        pull reader frame for frame: same bounds checks, same CRC, same
        accept/reject decisions on every stream. *)

    val program : t -> Cfg.program

    val table : t -> Path_table.t
    (** Paths declared so far; grows as batches are pulled. *)

    val instances_read : t -> int

    val vm_stats : t -> Hotpath_vm.Vm.run_stats option

    val error : t -> string option
  end
end
