(* HOTPATH3 streaming format: round trips, constant-memory contracts,
   the serializer fuzz suite, and the on-disk regression corpus.

   The fuzz suite's contract is strict for HOTPATH3: the per-frame CRC
   makes *every* byte-level corruption of a valid stream detectable, so
   each mutated blob must come back [Error _] — never [Ok], never an
   exception, never a hang.  HOTPATH2 has no checksum, so its byte-flip
   cases only demand no-crash ([Ok] or [Error]), while truncations and
   count-field corruptions are still strict. *)

module Cfg = Hotpath_cfg.Cfg
module Recorder = Hotpath_trace.Recorder
module Serialize = Hotpath_trace.Serialize
module Stream = Hotpath_trace.Serialize.Stream
module Path_table = Hotpath_trace.Path_table
module Replay = Hotpath_prediction.Replay
module Scheme = Hotpath_prediction.Scheme
module Net = Hotpath_prediction.Net
module Path_profile = Hotpath_prediction.Path_profile
module Sweep = Hotpath_metrics.Sweep
module Hot_set = Hotpath_metrics.Hot_set
module Suite = Hotpath_workloads.Suite
module Generator = Hotpath_workloads.Generator
module Prng = Hotpath_util.Prng

let record_fixture = Test_serialize.record_fixture

let check_same_recording = Test_serialize.check_same_recording

let fixture_program () =
  let program, behavior, _ = Fixtures.indirect_loop ~exit_prob:0.02 () in
  (program, behavior)

let stream_of_recorder ?chunk_instances r =
  match Stream.open_string (Stream.to_string ?chunk_instances r) with
  | Ok rd -> rd
  | Error e -> Alcotest.failf "open_string on valid stream failed: %s" e

let drain rd =
  match Stream.to_recorder rd with
  | Ok r -> r
  | Error e -> Alcotest.failf "to_recorder on valid stream failed: %s" e

(* ------------------------------------------------------------------ *)
(* Round trips and boundaries                                          *)
(* ------------------------------------------------------------------ *)

let test_stream_roundtrip () =
  let r = record_fixture () in
  List.iter
    (fun chunk_instances ->
       check_same_recording r (drain (stream_of_recorder ~chunk_instances r)))
    [ 1; 7; 256; Stream.default_chunk_instances ]

let test_chunk_boundaries () =
  (* Chunk sizes straddling the trace length: exactly one chunk, one
     short, one over. *)
  let r = record_fixture () in
  let n = Recorder.num_instances r in
  Alcotest.(check bool) "fixture is non-trivial" true (n > 2);
  List.iter
    (fun chunk_instances ->
       check_same_recording r (drain (stream_of_recorder ~chunk_instances r)))
    [ n - 1; n; n + 1 ]

let test_empty_trace_roundtrip () =
  let program, behavior = fixture_program () in
  let empty =
    Recorder.record ~max_paths:0 program behavior ~rng:(Prng.create ~seed:7)
  in
  Alcotest.(check int) "empty trace" 0 (Recorder.num_instances empty);
  let r' = drain (stream_of_recorder empty) in
  check_same_recording empty r'

let test_streamed_record_matches_materialized_bytes () =
  (* Recording straight to a sink must emit the same bytes as
     serializing the materialized recording at the same chunk size. *)
  let program, behavior = fixture_program () in
  let buf = Buffer.create 4096 in
  let summary =
    Stream.record ~max_steps:20_000 ~chunk_instances:128 program behavior
      ~rng:(Prng.create ~seed:7) ~sink:(Buffer.add_string buf)
  in
  let r =
    Recorder.record ~max_steps:20_000 program behavior
      ~rng:(Prng.create ~seed:7)
  in
  Alcotest.(check int) "summary instances" (Recorder.num_instances r)
    summary.Recorder.cs_instances;
  Alcotest.(check int) "summary paths" (Recorder.num_paths r)
    summary.Recorder.cs_paths;
  Alcotest.(check string) "byte-identical stream"
    (Stream.to_string ~chunk_instances:128 r)
    (Buffer.contents buf)

let test_record_chunked_invariant_under_chunk_size () =
  let program, behavior = fixture_program () in
  let at chunk_instances =
    let buf = Buffer.create 4096 in
    ignore
      (Stream.record ~max_steps:20_000 ~chunk_instances program behavior
         ~rng:(Prng.create ~seed:7) ~sink:(Buffer.add_string buf));
    match Serialize.of_string (Buffer.contents buf) with
    | Ok r -> r
    | Error e -> Alcotest.failf "chunked stream unreadable: %s" e
  in
  let reference = at 1 in
  List.iter
    (fun c -> check_same_recording reference (at c))
    [ 2; 63; 4096 ]

let test_file_roundtrip_and_load_dispatch () =
  let r = record_fixture () in
  let path = Filename.temp_file "hotpath_stream" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Stream.save ~chunk_instances:100 r ~path;
       (* Serialize.load sniffs the magic and chunk-reads HOTPATH3. *)
       (match Serialize.load ~path with
        | Ok r' -> check_same_recording r r'
        | Error e -> Alcotest.failf "load of streamed file failed: %s" e);
       match Stream.open_file ~path with
       | Error e -> Alcotest.failf "open_file failed: %s" e
       | Ok rd -> check_same_recording r (drain rd))

let test_legacy_file_still_loads () =
  (* The HOTPATH2 fallback: files written by the legacy writer keep
     loading through the same entry point. *)
  let r = record_fixture () in
  let path = Filename.temp_file "hotpath_legacy" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Serialize.save r ~path;
       match Serialize.load ~path with
       | Ok r' -> check_same_recording r r'
       | Error e -> Alcotest.failf "legacy load failed: %s" e)

let test_reader_accessors () =
  let r = record_fixture () in
  let rd = stream_of_recorder ~chunk_instances:50 r in
  Alcotest.(check bool) "no stats before end" true (Stream.vm_stats rd = None);
  let rec pull () =
    match Stream.next rd with
    | Error e -> Alcotest.failf "next failed: %s" e
    | Ok (Some chunk) ->
      Alcotest.(check int) "arrivals per id"
        (Array.length chunk.Stream.ids)
        (Bytes.length chunk.Stream.arrivals);
      let np = Path_table.size (Stream.table rd) in
      Array.iter
        (fun id ->
           Alcotest.(check bool) "id already declared" true (id >= 0 && id < np))
        chunk.Stream.ids;
      pull ()
    | Ok None -> ()
  in
  pull ();
  Alcotest.(check int) "instances_read" (Recorder.num_instances r)
    (Stream.instances_read rd);
  Alcotest.(check bool) "stats after end" true (Stream.vm_stats rd <> None);
  (match Stream.next rd with
   | Ok None -> ()
   | _ -> Alcotest.fail "next after end must keep returning Ok None");
  Stream.close rd;
  Stream.close rd

(* ------------------------------------------------------------------ *)
(* Streamed replay differential                                        *)
(* ------------------------------------------------------------------ *)

let schemes : (string * (module Scheme.S)) list =
  [
    ("net", (module Net));
    ("net-once", (module Net.Net_once));
    ("let", (module Net.Last_executed_tail));
    ("path-profile", (module Path_profile));
  ]

let test_run_stream_matches_run () =
  let r = record_fixture () in
  List.iter
    (fun (name, scheme) ->
       List.iter
         (fun delay ->
            let materialized = Replay.run scheme ~delay r in
            match
              Replay.run_stream scheme ~delay (stream_of_recorder ~chunk_instances:33 r)
            with
            | Error e -> Alcotest.failf "%s: run_stream failed: %s" name e
            | Ok streamed ->
              Alcotest.(check bool)
                (Printf.sprintf "%s delay=%d identical" name delay)
                true
                (Test_properties.outcome_equal materialized streamed))
         [ 1; 7; 50; 100_000 ])
    schemes

let test_run_many_stream_matches_run_many () =
  let r = record_fixture () in
  let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
  List.iter
    (fun (name, scheme) ->
       let materialized = Replay.run_many scheme ~delays r in
       match
         Replay.run_many_stream scheme ~delays (stream_of_recorder ~chunk_instances:61 r)
       with
       | Error e -> Alcotest.failf "%s: run_many_stream failed: %s" name e
       | Ok streamed ->
         Alcotest.(check int) "one outcome per delay" (List.length delays)
           (List.length streamed);
         List.iter2
           (fun a b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s lane identical" name)
                true
                (Test_properties.outcome_equal a b))
           materialized streamed)
    schemes

let test_run_many_stream_single_pass () =
  let r = record_fixture () in
  let n = Recorder.num_instances r in
  let before = Replay.instance_reads () in
  (match
     Replay.run_many_stream (module Net) ~delays:[ 1; 5; 25; 125 ]
       (stream_of_recorder r)
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "run_many_stream failed: %s" e);
  Alcotest.(check int) "stream read once" n (Replay.instance_reads () - before)

let test_sweep_stream_matches_sweep () =
  let r = record_fixture () in
  let threshold = Suite.hot_threshold in
  let hot =
    Hot_set.compute
      ~freq:(Recorder.frequencies r)
      ~total_flow:(Recorder.num_instances r)
      ~threshold
  in
  let delays = [ 2; 10; 100; 1_000 ] in
  let materialized = Sweep.run (module Net) r ~hot ~delays in
  match Sweep.run_stream (module Net) (stream_of_recorder r) ~threshold ~delays with
  | Error e -> Alcotest.failf "run_stream sweep failed: %s" e
  | Ok streamed ->
    Alcotest.(check bool) "sweep points identical" true (materialized = streamed)

let test_run_stream_surfaces_decode_errors () =
  (* A stream corrupted past the program frame fails inside the replay
     loop; the error must surface as Error, not an exception, and the
     reader must stay poisoned. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:40 r in
  let b = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  match Stream.open_string (Bytes.to_string b) with
  | Error _ -> () (* corruption already hit the program frame: fine *)
  | Ok rd -> (
      match Replay.run_stream (module Net) ~delay:7 rd with
      | Ok _ -> Alcotest.fail "corrupt stream replayed to Ok"
      | Error first -> (
          match Stream.next rd with
          | Error second ->
            Alcotest.(check string) "reader stays poisoned" first second
          | Ok _ -> Alcotest.fail "poisoned reader yielded a chunk"))

(* ------------------------------------------------------------------ *)
(* Fuzz suite                                                          *)
(* ------------------------------------------------------------------ *)

let expect_error name s =
  match Serialize.of_string s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: corrupt input accepted" name

let flip_bit s ~pos ~bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

let test_fuzz_h3_bitflips () =
  (* 400 random single-bit flips over a valid HOTPATH3 blob: the CRC
     guarantees every one is detected. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:64 r in
  let rng = Prng.create ~seed:0xF1255 in
  for case = 1 to 400 do
    let pos = Prng.int rng ~bound:(String.length s) in
    let bit = Prng.int rng ~bound:8 in
    expect_error
      (Printf.sprintf "h3 bitflip %d (pos=%d bit=%d)" case pos bit)
      (flip_bit s ~pos ~bit)
  done

let test_fuzz_h3_truncations () =
  (* Every strict prefix is a torn write; 120 spread across the blob. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:64 r in
  let n = String.length s in
  for i = 0 to 119 do
    let keep = i * (n - 1) / 119 in
    expect_error (Printf.sprintf "h3 truncated to %d" keep) (String.sub s 0 keep)
  done

let frame_offsets s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      let len = Int32.to_int (String.get_int32_le s (off + 1)) in
      go (off + 5 + len + 4) ((off, len) :: acc)
  in
  go (String.length Stream.magic) []

let test_fuzz_h3_length_fields () =
  (* Every frame's payload-length field, mutated five ways.  Plausible
     lengths are caught by the CRC (the header is covered), implausible
     ones by the bound check before any allocation. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:4 r in
  let offsets = frame_offsets s in
  (* program + >=1 paths + >=2 instances + end *)
  Alcotest.(check bool) "multi-frame stream" true (List.length offsets >= 5);
  List.iter
    (fun (off, len) ->
       List.iter
         (fun v ->
            if v <> len then begin
              let b = Bytes.of_string s in
              Bytes.set_int32_le b (off + 1) (Int32.of_int v);
              expect_error
                (Printf.sprintf "h3 frame@%d len %d->%d" off len v)
                (Bytes.to_string b)
            end)
         [ -1; 0; len - 1; len + 1; Stream.max_frame_payload + 1 ])
    offsets

let test_fuzz_h3_trailing_garbage () =
  let r = record_fixture () in
  let s = Stream.to_string r in
  expect_error "h3 trailing garbage" (s ^ "x");
  expect_error "h3 trailing frame"
    (s ^ String.sub s (String.length Stream.magic) 32)

let test_fuzz_h2_bitflips_never_crash () =
  (* No checksum in HOTPATH2: a flip may legitimately decode, but it
     must never escape as an exception. *)
  let r = record_fixture () in
  let s = Serialize.to_string r in
  let rng = Prng.create ~seed:0xBEE5 in
  for _ = 1 to 300 do
    let pos = Prng.int rng ~bound:(String.length s) in
    let bit = Prng.int rng ~bound:8 in
    match Serialize.of_string (flip_bit s ~pos ~bit) with
    | Ok _ | Error _ -> ()
  done

let test_fuzz_h2_truncations () =
  let r = record_fixture () in
  let s = Serialize.to_string r in
  let n = String.length s in
  for i = 0 to 59 do
    let keep = i * (n - 1) / 59 in
    expect_error (Printf.sprintf "h2 truncated to %d" keep) (String.sub s 0 keep)
  done

let test_fuzz_h2_count_fields () =
  (* The count fields that once drove unchecked allocations (or, for the
     64-bit instance count, an overflow that escaped as an uncaught
     exception): extreme values must come back Error. *)
  let r = record_fixture () in
  let s = Serialize.to_string r in
  let n = Recorder.num_instances r in
  let count_off = String.length s - 57 - (5 * n) - 8 in
  List.iter
    (fun shift ->
       let b = Bytes.of_string s in
       Bytes.set_int64_le b count_off (Int64.shift_left 1L shift);
       expect_error
         (Printf.sprintf "h2 instance count 2^%d" shift)
         (Bytes.to_string b))
    [ 20; 31; 61; 62; 63 ]

(* ------------------------------------------------------------------ *)
(* Regression corpus                                                   *)
(* ------------------------------------------------------------------ *)

let corpus_files () =
  match Sys.readdir "fixtures" with
  | exception Sys_error e -> Alcotest.failf "corpus missing: %s" e
  | files ->
    (* fixtures/ also holds the golden/ directory; the corpus is the
       .trace files only. *)
    let files =
      Array.to_list files
      |> List.filter (fun f -> Filename.check_suffix f ".trace")
      |> List.sort String.compare
    in
    Alcotest.(check bool) "corpus populated" true (List.length files >= 10);
    files

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_corpus () =
  List.iter
    (fun name ->
       let path = Filename.concat "fixtures" name in
       let contents = read_file path in
       let from_string = Serialize.of_string contents in
       let from_file = Serialize.load ~path in
       if String.length name >= 6 && String.sub name 0 6 = "valid_" then begin
         (match from_string with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: of_string rejected: %s" name e);
         match from_file with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "%s: load rejected: %s" name e
       end
       else begin
         (match from_string with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "%s: of_string accepted corrupt input" name);
         match from_file with
         | Error _ -> ()
         | Ok _ -> Alcotest.failf "%s: load accepted corrupt input" name
       end)
    (corpus_files ())

(* ------------------------------------------------------------------ *)
(* Frame-flood robustness.  Empty k_paths frames are legal (a chunk
   flush that declared no new paths), so an adversarial or degenerate
   writer can emit millions of them.  Stream.next used to recurse once
   per skipped frame *inside* its try block — a non-tail call — so a
   flood overflowed the stack with an uncaught exception; now it must
   decode in bounded time and memory to the same recording.            *)
(* ------------------------------------------------------------------ *)

let raw_frame ~kind payload =
  let module Crc32 = Hotpath_util.Crc32 in
  let len = String.length payload in
  let hdr = Bytes.create 5 in
  Bytes.set_uint8 hdr 0 kind;
  Bytes.set_int32_le hdr 1 (Int32.of_int len);
  let crc = Crc32.update_bytes Crc32.empty hdr ~pos:0 ~len:5 in
  let crc = Crc32.update_string crc payload ~pos:0 ~len in
  let tl = Bytes.create 4 in
  Bytes.set_int32_le tl 0 crc;
  Bytes.to_string hdr ^ payload ^ Bytes.to_string tl

(* Splice [extra] into a valid stream just after its program frame (the
   first frame following the magic). *)
let splice_after_program blob extra =
  let m = String.length Stream.magic in
  let payload_len =
    Int32.to_int (String.get_int32_le blob (m + 1))
  in
  let cut = m + 5 + payload_len + 4 in
  String.sub blob 0 cut ^ extra ^ String.sub blob cut (String.length blob - cut)

let flood_frames n =
  (* A k_paths payload is a 4-byte path count followed by that many
     paths; count = 0 is the legal "no new paths" frame. *)
  let frame = raw_frame ~kind:1 (* k_paths *) "\x00\x00\x00\x00" in
  let buf = Buffer.create (n * String.length frame) in
  for _ = 1 to n do
    Buffer.add_string buf frame
  done;
  Buffer.contents buf

let test_empty_paths_frame_flood () =
  let r = record_fixture () in
  let blob = Stream.to_string r in
  let flooded = splice_after_program blob (flood_frames 2_000_000) in
  match Stream.open_string flooded with
  | Error e -> Alcotest.failf "flooded stream rejected at open: %s" e
  | Ok rd ->
    (match Stream.to_recorder rd with
     | Error e -> Alcotest.failf "flooded stream rejected: %s" e
     | Ok r' -> check_same_recording r r')

let test_flood_then_truncation_rejected () =
  (* A flood that ends in a torn frame must surface as Error, not an
     exception: the skip loop cannot outrun the truncation check. *)
  let r = record_fixture () in
  let blob = Stream.to_string r in
  let m = String.length Stream.magic in
  let payload_len = Int32.to_int (String.get_int32_le blob (m + 1)) in
  let prefix = String.sub blob 0 (m + 5 + payload_len + 4) in
  let truncated = prefix ^ flood_frames 100_000 ^ "\x01\x00" in
  match Stream.open_string truncated with
  | Error _ -> ()
  | Ok rd ->
    (match Stream.to_recorder rd with
     | Error _ -> ()
     | Ok _ -> Alcotest.fail "truncated flood decoded to Ok")

let test_corpus_valid_members_agree () =
  (* The two valid encodings of the same recording must load to the same
     recording. *)
  let load name =
    match Serialize.load ~path:(Filename.concat "fixtures" name) with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  check_same_recording (load "valid_hotpath2.trace") (load "valid_hotpath3.trace");
  let empty = load "valid_hotpath3_empty.trace" in
  Alcotest.(check int) "empty corpus member" 0 (Recorder.num_instances empty)

(* ------------------------------------------------------------------ *)
(* Push decoder: the incremental counterpart of the pull reader         *)
(* ------------------------------------------------------------------ *)

(* Feed [s] to a fresh decoder [feed] bytes at a time, pumping between
   feeds.  Returns the decoder plus everything it produced. *)
let decode_all ?(feed = 4096) s =
  let d = Stream.Decoder.create () in
  let ids = ref [] in
  let arrs = ref [] in
  let error = ref None in
  let rec pump () =
    if !error = None then
      match Stream.Decoder.next d with
      | Error e -> error := Some e
      | Ok Stream.Decoder.Need_more -> ()
      | Ok (Stream.Decoder.Program _) -> pump ()
      | Ok (Stream.Decoder.Chunk c) ->
        ids := c.Stream.ids :: !ids;
        arrs := Bytes.to_string c.Stream.arrivals :: !arrs;
        pump ()
      | Ok (Stream.Decoder.End _) -> ()
  in
  let off = ref 0 in
  let n = String.length s in
  while !off < n && !error = None do
    let len = min feed (n - !off) in
    Stream.Decoder.feed d s ~pos:!off ~len;
    off := !off + len;
    pump ()
  done;
  ( d,
    Array.concat (List.rev !ids),
    String.concat "" (List.rev !arrs),
    !error )

let test_decoder_matches_reader () =
  let r = record_fixture () in
  let blob = Stream.to_string ~chunk_instances:256 r in
  List.iter
    (fun feed ->
      let d, ids, arrs, error = decode_all ~feed blob in
      (match error with
      | Some e -> Alcotest.failf "decoder (feed=%d) errored: %s" feed e
      | None -> ());
      Alcotest.(check bool)
        (Printf.sprintf "finished at feed=%d" feed)
        true
        (Stream.Decoder.finished d);
      Alcotest.(check (array int)) "ids match recorder" r.Recorder.instances
        ids;
      Alcotest.(check string) "arrivals match recorder"
        (Bytes.to_string r.Recorder.arrivals)
        arrs;
      Alcotest.(check int) "instances_read"
        (Array.length r.Recorder.instances)
        (Stream.Decoder.instances_read d);
      Alcotest.(check int) "table size" (Recorder.num_paths r)
        (Path_table.size (Stream.Decoder.table d));
      Alcotest.(check bool) "program decoded" true
        (Stream.Decoder.program d <> None);
      Alcotest.(check int) "buffer drained" 0 (Stream.Decoder.buffered d))
    [ 1; 7; 4096 ]

let test_decoder_bitflip_fuzz () =
  (* Every byte-level corruption of a valid HOTPATH3 blob is covered by
     a frame CRC, so an incremental decode must never finish cleanly:
     either a typed error, or a stream left incomplete (a torn length
     field can only look like "more bytes coming" — the serve layer
     turns that into a disconnect at EOF).  Never an exception. *)
  let r = record_fixture () in
  let blob = Stream.to_string ~chunk_instances:256 r in
  let rng = Prng.create ~seed:0xDEC0DE in
  for _ = 1 to 200 do
    let pos = Prng.int rng ~bound:(String.length blob) in
    let bit = Prng.int rng ~bound:8 in
    let b = Bytes.of_string blob in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    let mutated = Bytes.to_string b in
    let d, _, _, error = decode_all ~feed:509 mutated in
    if error = None && Stream.Decoder.finished d then
      Alcotest.failf "bitflip at byte %d bit %d decoded to a finished stream"
        pos bit;
    (* A poisoned decoder repeats its error and ignores further food. *)
    match error with
    | None -> ()
    | Some e -> (
      Stream.Decoder.feed d blob ~pos:0 ~len:16;
      match Stream.Decoder.next d with
      | Error e' -> Alcotest.(check string) "error is sticky" e e'
      | Ok _ -> Alcotest.fail "decoder recovered after an error")
  done

let test_decoder_trailing_garbage () =
  let r = record_fixture () in
  let blob = Stream.to_string r in
  let _, _, _, error = decode_all ~feed:1021 (blob ^ "zz") in
  match error with
  | None -> Alcotest.fail "trailing garbage not surfaced"
  | Some e ->
    Alcotest.(check bool) "mentions garbage" true
      (String.length e > 0)

let test_decoder_end_repeats () =
  let r = record_fixture () in
  let blob = Stream.to_string r in
  let d, _, _, error = decode_all blob in
  Alcotest.(check bool) "no error" true (error = None);
  match (Stream.Decoder.next d, Stream.Decoder.next d) with
  | Ok (Stream.Decoder.End _), Ok (Stream.Decoder.End _) -> ()
  | _ -> Alcotest.fail "End is not repeated after completion"

let test_decoder_feed_validation () =
  let d = Stream.Decoder.create () in
  Alcotest.check_raises "bad substring"
    (Invalid_argument "Serialize.Stream.Decoder.feed: bad substring")
    (fun () -> Stream.Decoder.feed d "abc" ~pos:2 ~len:5)

(* ------------------------------------------------------------------ *)
(* Mapped (zero-copy) reader: differential vs the pull reader, plus     *)
(* its own bitflip/truncation fuzz — the in-place validation must make  *)
(* exactly the pull reader's accept/reject decisions and never crash.   *)
(* ------------------------------------------------------------------ *)

module Mapped = Stream.Mapped
module Batch = Hotpath_trace.Batch

(* Drain a mapped reader through one reused batch.  Returns the
   concatenated ids and arrival bytes plus the terminal state:
   [Ok ()] for a clean end frame, [Error e] when the reader poisoned. *)
let drain_mapped m =
  let b = Batch.create ~capacity:16 () in
  let ids = ref [] in
  let arrs = ref [] in
  let rec loop () =
    match Mapped.next_batch m b with
    | Ok true ->
      let n = Batch.length b in
      ids := Array.sub b.Batch.ids 0 n :: !ids;
      arrs := Bytes.sub_string b.Batch.arrs 0 n :: !arrs;
      loop ()
    | Ok false -> Ok ()
    | Error e -> Error e
  in
  let final = loop () in
  (Array.concat (List.rev !ids), String.concat "" (List.rev !arrs), final)

let test_mapped_matches_recorder () =
  let r = record_fixture () in
  List.iter
    (fun chunk_instances ->
       let blob = Stream.to_string ~chunk_instances r in
       match Mapped.of_string blob with
       | Error e -> Alcotest.failf "of_string on valid stream: %s" e
       | Ok m ->
         let ids, arrs, final = drain_mapped m in
         (match final with
          | Ok () -> ()
          | Error e -> Alcotest.failf "drain (chunk=%d): %s" chunk_instances e);
         Alcotest.(check (array int)) "ids match recorder"
           r.Recorder.instances ids;
         Alcotest.(check string) "arrivals match recorder"
           (Bytes.to_string r.Recorder.arrivals)
           arrs;
         Alcotest.(check int) "instances_read" (Recorder.num_instances r)
           (Mapped.instances_read m);
         Alcotest.(check int) "table size" (Recorder.num_paths r)
           (Path_table.size (Mapped.table m));
         Alcotest.(check bool) "stats after end" true (Mapped.vm_stats m <> None);
         (* The end state is sticky. *)
         (match Mapped.next_batch m (Batch.create ()) with
          | Ok false -> ()
          | _ -> Alcotest.fail "next_batch after end must keep returning Ok false"))
    [ 1; 7; 256; Stream.default_chunk_instances ]

let test_mapped_file_and_fallback () =
  let r = record_fixture () in
  let path = Filename.temp_file "hotpath_mapped" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Stream.save ~chunk_instances:100 r ~path;
       (match Mapped.map_file ~path with
        | Error e -> Alcotest.failf "map_file failed: %s" e
        | Ok m ->
          let ids, arrs, final = drain_mapped m in
          Alcotest.(check bool) "clean end" true (final = Ok ());
          Alcotest.(check (array int)) "ids via mmap" r.Recorder.instances ids;
          Alcotest.(check string) "arrivals via mmap"
            (Bytes.to_string r.Recorder.arrivals)
            arrs);
       (* Non-regular files must bounce to the pull reader, not crash:
          a directory and a character device both refuse to map. *)
       (match Mapped.map_file ~path:(Filename.get_temp_dir_name ()) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mapped a directory");
       (match Mapped.map_file ~path:"/dev/null" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mapped a character device");
       (match Mapped.map_file ~path:(path ^ ".does-not-exist") with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mapped a missing file"))

let test_mapped_corpus_agrees_with_pull_reader () =
  (* The one differential that matters for a second decoder: identical
     accept/reject decisions on every corpus member (HOTPATH2 members
     fail the magic in both; corrupt HOTPATH3 members must poison both). *)
  List.iter
    (fun name ->
       let contents = read_file (Filename.concat "fixtures" name) in
       let pull_ok =
         match Stream.open_string contents with
         | Error _ -> false
         | Ok rd -> (match Stream.to_recorder rd with Ok _ -> true | Error _ -> false)
       in
       let mapped_ok =
         match Mapped.of_string contents with
         | Error _ -> false
         | Ok m -> (match drain_mapped m with _, _, Ok () -> true | _ -> false)
       in
       Alcotest.(check bool)
         (Printf.sprintf "%s: mapped verdict = pull verdict" name)
         pull_ok mapped_ok)
    (corpus_files ())

let test_mapped_bitflip_fuzz () =
  (* 400 random single-bit flips: the per-frame CRC covers every byte,
     so no mutation may drain to a clean end — Error at open or Error
     mid-drain, never an exception.  Errors are sticky. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:64 r in
  let rng = Prng.create ~seed:0x3A99ED in
  for case = 1 to 400 do
    let pos = Prng.int rng ~bound:(String.length s) in
    let bit = Prng.int rng ~bound:8 in
    match Mapped.of_string (flip_bit s ~pos ~bit) with
    | Error _ -> ()
    | Ok m -> (
        match drain_mapped m with
        | _, _, Ok () ->
          Alcotest.failf "mapped bitflip %d (pos=%d bit=%d) drained clean" case
            pos bit
        | _, _, Error e -> (
            match Mapped.next_batch m (Batch.create ()) with
            | Error e' -> Alcotest.(check string) "error is sticky" e e'
            | Ok _ -> Alcotest.fail "poisoned mapped reader recovered"))
  done

let test_mapped_truncation_fuzz () =
  (* 120 prefixes: every torn write is Error, never a crash or a clean
     end. *)
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:64 r in
  let n = String.length s in
  for i = 0 to 119 do
    let keep = i * (n - 1) / 119 in
    match Mapped.of_string (String.sub s 0 keep) with
    | Error _ -> ()
    | Ok m -> (
        match drain_mapped m with
        | _, _, Ok () -> Alcotest.failf "truncation to %d drained clean" keep
        | _, _, Error _ -> ())
  done

let test_run_mapped_matches_run () =
  let r = record_fixture () in
  let mapped ?(chunk_instances = 33) () =
    match Mapped.of_string (Stream.to_string ~chunk_instances r) with
    | Ok m -> m
    | Error e -> Alcotest.failf "of_string on valid stream: %s" e
  in
  List.iter
    (fun (name, scheme) ->
       List.iter
         (fun delay ->
            let materialized = Replay.run scheme ~delay r in
            match Replay.run_mapped scheme ~delay (mapped ()) with
            | Error e -> Alcotest.failf "%s: run_mapped failed: %s" name e
            | Ok m ->
              Alcotest.(check bool)
                (Printf.sprintf "%s delay=%d identical" name delay)
                true
                (Test_properties.outcome_equal materialized m))
         [ 1; 7; 50; 100_000 ])
    schemes

let test_run_many_mapped_matches_run_many () =
  let r = record_fixture () in
  let delays = [ 1; 3; 7; 20; 100; 5_000 ] in
  let mapped ~chunk_instances () =
    match Mapped.of_string (Stream.to_string ~chunk_instances r) with
    | Ok m -> m
    | Error e -> Alcotest.failf "of_string on valid stream: %s" e
  in
  List.iter
    (fun (name, scheme) ->
       let materialized = Replay.run_many scheme ~delays r in
       match
         Replay.run_many_mapped scheme ~delays (mapped ~chunk_instances:61 ())
       with
       | Error e -> Alcotest.failf "%s: run_many_mapped failed: %s" name e
       | Ok ms ->
         Alcotest.(check int) "one outcome per delay" (List.length delays)
           (List.length ms);
         List.iter2
           (fun a b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s lane identical" name)
                true
                (Test_properties.outcome_equal a b))
           materialized ms)
    schemes

let test_run_many_mapped_events_identical () =
  (* One event stream, three drivers: materialized, pull-streamed, and
     mapped replay must emit byte-identical samples. *)
  let r = record_fixture () in
  let delays = [ 1; 3; 7; 20; 100 ] in
  let via_run_many () =
    let buf = Buffer.create 4096 in
    let ev = Replay.events ~window:97 (Hotpath_util.Events.of_buffer buf) in
    ignore (Replay.run_many ~events:ev (module Net) ~delays r);
    Buffer.contents buf
  in
  let via_stream () =
    let buf = Buffer.create 4096 in
    let ev = Replay.events ~window:97 (Hotpath_util.Events.of_buffer buf) in
    (match
       Replay.run_many_stream ~events:ev (module Net) ~delays
         (stream_of_recorder ~chunk_instances:61 r)
     with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "run_many_stream: %s" e);
    Buffer.contents buf
  in
  let via_mapped () =
    let buf = Buffer.create 4096 in
    let ev = Replay.events ~window:97 (Hotpath_util.Events.of_buffer buf) in
    (match Mapped.of_string (Stream.to_string ~chunk_instances:61 r) with
     | Error e -> Alcotest.failf "of_string: %s" e
     | Ok m -> (
         match Replay.run_many_mapped ~events:ev (module Net) ~delays m with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "run_many_mapped: %s" e));
    Buffer.contents buf
  in
  let reference = via_run_many () in
  Alcotest.(check bool) "events non-empty" true (String.length reference > 0);
  Alcotest.(check string) "stream events identical" reference (via_stream ());
  Alcotest.(check string) "mapped events identical" reference (via_mapped ())

let test_run_mapped_surfaces_decode_errors () =
  let r = record_fixture () in
  let s = Stream.to_string ~chunk_instances:40 r in
  let b = Bytes.of_string s in
  let mid = String.length s / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x40));
  match Mapped.of_string (Bytes.to_string b) with
  | Error _ -> () (* corruption already hit the program frame: fine *)
  | Ok m -> (
      match Replay.run_mapped (module Net) ~delay:7 m with
      | Ok _ -> Alcotest.fail "corrupt mapped stream replayed to Ok"
      | Error first -> (
          match Mapped.next_batch m (Batch.create ()) with
          | Error second ->
            Alcotest.(check string) "mapped reader stays poisoned" first second
          | Ok _ -> Alcotest.fail "poisoned mapped reader yielded a batch"))

(* [Suite.record_stream] decodes to the recording [Suite.record] makes —
   same program, path table, instances, arrivals and VM stats — on every
   benchmark.  Its bytes differ from [Stream.to_string] of that
   recording (paths frames sit between instance frames), so the
   contract is checked on the decoded values, not the bytes. *)
let test_record_stream_decodes_to_record () =
  List.iter
    (fun (b : Hotpath_workloads.Suite.benchmark) ->
       let name = b.Hotpath_workloads.Suite.b_name in
       let scale = 0.02 in
       let direct = Hotpath_workloads.Suite.record ~scale b in
       let buf = Buffer.create (1 lsl 16) in
       ignore
         (Hotpath_workloads.Suite.record_stream ~scale b
            ~sink:(Buffer.add_string buf));
       let streamed =
         match Stream.open_string (Buffer.contents buf) with
         | Error e -> Alcotest.failf "%s: open_string: %s" name e
         | Ok rd -> (
           match Stream.to_recorder rd with
           | Error e -> Alcotest.failf "%s: to_recorder: %s" name e
           | Ok r -> r)
       in
       Alcotest.(check bool) (name ^ ": program") true
         (streamed.Recorder.program = direct.Recorder.program);
       let paths (r : Recorder.t) =
         List.init (Path_table.size r.Recorder.table) (Path_table.path r.Recorder.table)
       in
       Alcotest.(check bool) (name ^ ": path table") true
         (paths streamed = paths direct);
       Alcotest.(check (array int)) (name ^ ": instances")
         direct.Recorder.instances streamed.Recorder.instances;
       Alcotest.(check string) (name ^ ": arrivals")
         (Bytes.to_string direct.Recorder.arrivals)
         (Bytes.to_string streamed.Recorder.arrivals);
       Alcotest.(check bool) (name ^ ": vm stats") true
         (streamed.Recorder.vm_stats = direct.Recorder.vm_stats))
    Hotpath_workloads.Suite.all

(* ------------------------------------------------------------------ *)
(* One frame core, three readers: verdicts and error precedence         *)
(* ------------------------------------------------------------------ *)

let le32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Bytes.to_string b

let test_pull_reader_allocation_bounded () =
  (* The magic and a frame header declaring the largest legal payload,
     then EOF: the reader must fail without allocating for the 64 MiB
     that never arrive. *)
  let s = Stream.magic ^ "\x00" ^ le32 Stream.max_frame_payload in
  Alcotest.(check int) "13-byte input" 13 (String.length s);
  let path = Filename.temp_file "hotpath_short" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       Out_channel.with_open_bin path (fun oc -> output_string oc s);
       List.iter
         (fun (name, open_) ->
            let before = Gc.allocated_bytes () in
            let result = open_ () in
            let allocated = Gc.allocated_bytes () -. before in
            (match result with
             | Ok _ -> Alcotest.failf "%s: short stream opened" name
             | Error e ->
               Alcotest.(check string) (name ^ " message")
                 "truncated stream: EOF while reading frame payload" e);
            if allocated >= 1048576.0 then
              Alcotest.failf "%s: allocated %.0f bytes for a 13-byte input" name
                allocated)
         [ ("open_string", fun () -> Stream.open_string s);
           ("open_file", fun () -> Stream.open_file ~path) ])

(* The error each reader reports for [s] — [None] for a clean end. *)
let verdicts s =
  let pull =
    match Stream.open_string s with
    | Error e -> Some e
    | Ok rd -> ( match Stream.to_recorder rd with Ok _ -> None | Error e -> Some e)
  in
  let _, _, _, push = decode_all s in
  let mapped =
    match Mapped.of_string s with
    | Error e -> Some e
    | Ok m -> ( match drain_mapped m with _, _, Ok () -> None | _, _, Error e -> Some e)
  in
  (pull, push, mapped)

(* [blob] with its first instance frame replaced by [frame]. *)
let replace_first_instance_frame blob frame =
  match List.find_opt (fun (off, _) -> blob.[off] = '\002') (frame_offsets blob) with
  | None -> Alcotest.fail "no instance frame"
  | Some (off, len) ->
    let stop = off + 5 + len + 4 in
    String.sub blob 0 off ^ frame ^ String.sub blob stop (String.length blob - stop)

let test_error_precedence () =
  (* A frame is checked for its CRC before its payload is parsed, so a
     payload defect behind a bad checksum reports the checksum on every
     reader; with the checksum intact, every reader reports the defect
     itself, in the same words. *)
  let r = record_fixture () in
  let blob = Stream.to_string ~chunk_instances:64 r in
  let corrupt_crc frame =
    let b = Bytes.of_string frame in
    let last = Bytes.length b - 1 in
    Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
    Bytes.to_string b
  in
  List.iter
    (fun (name, payload, defect) ->
       let frame = raw_frame ~kind:2 payload in
       let check what expected s =
         let pull, push, mapped = verdicts s in
         List.iter
           (fun (reader, got) ->
              Alcotest.(check (option string))
                (Printf.sprintf "%s, %s: %s" name what reader)
                (Some expected) got)
           [ ("pull", pull); ("push", push); ("mapped", mapped) ]
       in
       check "intact CRC" defect (replace_first_instance_frame blob frame);
       check "bad CRC" "frame checksum mismatch (kind 2)"
         (replace_first_instance_frame blob (corrupt_crc frame)))
    ([ ( "out-of-range id",
         le32 1 ^ le32 1_000_000 ^ "\000",
         Printf.sprintf "instance path id 1000000 out of range (%d paths)"
           (Recorder.num_paths r) );
       ("bad arrival code", le32 1 ^ le32 0 ^ "\007", "invalid arrival code 7");
       ("trailing bytes", le32 1 ^ le32 0 ^ "\000xx", "frame has 2 trailing bytes") ]
     (* Code 3 at each byte position of an 8-byte word of arrival codes,
        in a frame long enough to hold two such words. *)
     @ List.init 8 (fun pos ->
         let n = 16 in
         let arrs = String.init n (fun j -> if j = pos then '\003' else '\000') in
         ( Printf.sprintf "arrival code 3 at byte %d" pos,
           le32 n ^ String.concat "" (List.init n (fun _ -> le32 0)) ^ arrs,
           "invalid arrival code 3" )))

let test_push_byte_at_a_time_matches_mapped () =
  (* One instance frame several times the decoder's initial buffer, fed
     a byte at a time: it arrives across buffer compactions and growth,
     and must decode to the batch the mapped reader decodes in place. *)
  let r = Suite.record ~scale:0.02 (Suite.find_exn "li") in
  let n = Recorder.num_instances r in
  Alcotest.(check bool) "frame spans several buffer sizes" true (5 * n > 4 * 4096);
  let blob = Stream.to_string ~chunk_instances:n r in
  let mapped_ids, mapped_arrs =
    match Mapped.of_string blob with
    | Error e -> Alcotest.failf "of_string: %s" e
    | Ok m -> (
        match drain_mapped m with
        | ids, arrs, Ok () -> (ids, arrs)
        | _, _, Error e -> Alcotest.failf "mapped drain: %s" e)
  in
  let d = Stream.Decoder.create () in
  let batch = Batch.create ~capacity:16 () in
  let batches = ref [] and finished = ref false in
  let rec pump () =
    match Stream.Decoder.next_batch d batch with
    | Error e -> Alcotest.failf "push decoder: %s" e
    | Ok Stream.Decoder.B_need_more -> ()
    | Ok (Stream.Decoder.B_program _) -> pump ()
    | Ok Stream.Decoder.B_batch ->
      let k = Batch.length batch in
      batches :=
        (Array.sub batch.Batch.ids 0 k, Bytes.sub_string batch.Batch.arrs 0 k)
        :: !batches;
      pump ()
    | Ok (Stream.Decoder.B_end _) -> finished := true
  in
  String.iteri
    (fun i _ ->
       Stream.Decoder.feed d blob ~pos:i ~len:1;
       pump ())
    blob;
  Alcotest.(check bool) "finished" true !finished;
  match !batches with
  | [ (ids, arrs) ] ->
    Alcotest.(check (array int)) "ids = mapped" mapped_ids ids;
    Alcotest.(check string) "arrivals = mapped" mapped_arrs arrs
  | l -> Alcotest.failf "%d batches, expected one" (List.length l)

let suites =
  [
    ( "trace.stream",
      [
        Alcotest.test_case "Suite.record_stream decodes to Suite.record" `Quick
          test_record_stream_decodes_to_record;
        Alcotest.test_case "roundtrip at several chunk sizes" `Quick
          test_stream_roundtrip;
        Alcotest.test_case "chunk boundary sizes" `Quick test_chunk_boundaries;
        Alcotest.test_case "empty trace roundtrip" `Quick
          test_empty_trace_roundtrip;
        Alcotest.test_case "streamed record = materialized bytes" `Quick
          test_streamed_record_matches_materialized_bytes;
        Alcotest.test_case "record_chunked invariant in chunk size" `Quick
          test_record_chunked_invariant_under_chunk_size;
        Alcotest.test_case "file roundtrip + load dispatch" `Quick
          test_file_roundtrip_and_load_dispatch;
        Alcotest.test_case "legacy HOTPATH2 file still loads" `Quick
          test_legacy_file_still_loads;
        Alcotest.test_case "reader accessors" `Quick test_reader_accessors;
        Alcotest.test_case "run_stream = run (all schemes)" `Quick
          test_run_stream_matches_run;
        Alcotest.test_case "run_many_stream = run_many (all schemes)" `Quick
          test_run_many_stream_matches_run_many;
        Alcotest.test_case "run_many_stream reads stream once" `Quick
          test_run_many_stream_single_pass;
        Alcotest.test_case "sweep over stream = materialized sweep" `Quick
          test_sweep_stream_matches_sweep;
        Alcotest.test_case "replay surfaces decode errors" `Quick
          test_run_stream_surfaces_decode_errors;
      ] );
    ( "trace.stream.fuzz",
      [
        Alcotest.test_case "400 h3 bitflips all rejected" `Quick
          test_fuzz_h3_bitflips;
        Alcotest.test_case "120 h3 truncations all rejected" `Quick
          test_fuzz_h3_truncations;
        Alcotest.test_case "h3 length-field mutations all rejected" `Quick
          test_fuzz_h3_length_fields;
        Alcotest.test_case "h3 trailing garbage rejected" `Quick
          test_fuzz_h3_trailing_garbage;
        Alcotest.test_case "300 h2 bitflips never crash" `Quick
          test_fuzz_h2_bitflips_never_crash;
        Alcotest.test_case "60 h2 truncations all rejected" `Quick
          test_fuzz_h2_truncations;
        Alcotest.test_case "h2 count-field corruption rejected" `Quick
          test_fuzz_h2_count_fields;
        Alcotest.test_case "2M empty-paths-frame flood decodes" `Quick
          test_empty_paths_frame_flood;
        Alcotest.test_case "frame flood + torn frame rejected" `Quick
          test_flood_then_truncation_rejected;
        Alcotest.test_case "regression corpus" `Quick test_corpus;
        Alcotest.test_case "corpus valid members agree" `Quick
          test_corpus_valid_members_agree;
      ] );
    ( "trace.stream.decoder",
      [
        Alcotest.test_case "push decoder = pull reader (feed 1/7/4096)" `Quick
          test_decoder_matches_reader;
        Alcotest.test_case "200 bitflips never finish clean" `Quick
          test_decoder_bitflip_fuzz;
        Alcotest.test_case "trailing garbage surfaced" `Quick
          test_decoder_trailing_garbage;
        Alcotest.test_case "End repeats after completion" `Quick
          test_decoder_end_repeats;
        Alcotest.test_case "feed validates substring" `Quick
          test_decoder_feed_validation;
      ] );
    ( "trace.stream.mapped",
      [
        Alcotest.test_case "mapped reader = recorder (chunk 1/7/256/default)"
          `Quick test_mapped_matches_recorder;
        Alcotest.test_case "map_file roundtrip + non-regular files refused"
          `Quick test_mapped_file_and_fallback;
        Alcotest.test_case "corpus verdicts agree with pull reader" `Quick
          test_mapped_corpus_agrees_with_pull_reader;
        Alcotest.test_case "400 bitflips never drain clean" `Quick
          test_mapped_bitflip_fuzz;
        Alcotest.test_case "120 truncations never drain clean" `Quick
          test_mapped_truncation_fuzz;
        Alcotest.test_case "run_mapped = run (all schemes)" `Quick
          test_run_mapped_matches_run;
        Alcotest.test_case "run_many_mapped = run_many" `Quick
          test_run_many_mapped_matches_run_many;
        Alcotest.test_case "event streams byte-identical across drivers" `Quick
          test_run_many_mapped_events_identical;
        Alcotest.test_case "replay surfaces mapped decode errors" `Quick
          test_run_mapped_surfaces_decode_errors;
      ] );
    ( "trace.stream.core",
      [
        Alcotest.test_case "pull reader allocation bounded by input" `Quick
          test_pull_reader_allocation_bounded;
        Alcotest.test_case "error precedence identical on all readers" `Quick
          test_error_precedence;
        Alcotest.test_case "push byte-at-a-time frame = mapped batch" `Quick
          test_push_byte_at_a_time_matches_mapped;
      ] );
  ]
