module Cfg = Hotpath_cfg.Cfg
module Vm = Hotpath_vm.Vm
module Vec = Hotpath_util.Vec
module Crc32 = Hotpath_util.Crc32

(* HOTPATH2: the unbounded count fields (block weights, per-path
   instruction counts) moved from 32 to 64 bits, and 32-bit writes became
   range-checked instead of silently truncating.  HOTPATH3 (the [Stream]
   module below) is the framed, CRC-protected chunk format. *)
let magic = "HOTPATH2"

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let add_u8 buf v = Buffer.add_uint8 buf v

let add_i32 buf v =
  if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
    invalid_arg
      (Printf.sprintf "Serialize.add_i32: %d does not fit in 32 bits" v);
  Buffer.add_int32_le buf (Int32.of_int v)

let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let add_raw_i64 buf v = Buffer.add_int64_le buf v

let add_str buf s =
  add_i32 buf (String.length s);
  Buffer.add_string buf s

let add_int_array buf arr =
  add_i32 buf (Array.length arr);
  Array.iter (add_i32 buf) arr

let add_terminator buf = function
  | Cfg.Branch { taken; fallthrough } ->
    add_u8 buf 0;
    add_i32 buf taken;
    add_i32 buf fallthrough
  | Cfg.Jump t ->
    add_u8 buf 1;
    add_i32 buf t
  | Cfg.Indirect targets ->
    add_u8 buf 2;
    add_int_array buf targets
  | Cfg.Call { callee; return_to } ->
    add_u8 buf 3;
    add_i32 buf callee;
    add_i32 buf return_to
  | Cfg.Return -> add_u8 buf 4
  | Cfg.Exit -> add_u8 buf 5

let add_program buf (p : Cfg.program) =
  add_str buf p.Cfg.pname;
  add_i32 buf p.Cfg.main;
  add_i32 buf (Array.length p.Cfg.procs);
  Array.iter
    (fun (pr : Cfg.proc) ->
       add_str buf pr.Cfg.name;
       add_int_array buf pr.Cfg.blocks)
    p.Cfg.procs;
  add_i32 buf (Array.length p.Cfg.blocks);
  Array.iter
    (fun (b : Cfg.block) ->
       add_i32 buf b.Cfg.proc;
       add_i64 buf b.Cfg.weight;
       add_terminator buf b.Cfg.term)
    p.Cfg.blocks

let end_kind_code = function
  | Path.Backward_transfer -> 0
  | Path.Matched_return -> 1
  | Path.Cap -> 2
  | Path.Program_end -> 3

let add_path buf (p : Path.t) =
  let s = p.Path.signature in
  add_i32 buf (Signature.head s);
  add_u8 buf (Signature.length s);
  add_raw_i64 buf (Signature.history s);
  add_int_array buf (Array.of_list (Signature.indirect_targets s));
  add_int_array buf p.Path.blocks;
  add_i64 buf p.Path.n_instrs;
  add_u8 buf (end_kind_code p.Path.end_kind)

let add_stats buf (s : Vm.run_stats) =
  add_u8 buf (match s.Vm.reason with `Exited -> 0 | `Fuel -> 1);
  List.iter (add_i64 buf)
    [ s.Vm.blocks; s.Vm.branches; s.Vm.calls; s.Vm.returns; s.Vm.indirects;
      s.Vm.backward_transfers; s.Vm.max_stack ]

let write (r : Recorder.t) buf =
  Buffer.add_string buf magic;
  add_program buf r.Recorder.program;
  add_i32 buf (Path_table.size r.Recorder.table);
  Path_table.iter (add_path buf) r.Recorder.table;
  add_i64 buf (Array.length r.Recorder.instances);
  Array.iter (add_i32 buf) r.Recorder.instances;
  Buffer.add_bytes buf r.Recorder.arrivals;
  add_stats buf r.Recorder.vm_stats

let to_string r =
  let buf = Buffer.create (1 lsl 16) in
  write r buf;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse of string

type cursor = { s : string; mutable pos : int }

let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

(* Overflow-safe: [n] may be any 64-bit count from a corrupt input, so the
   bound is checked by subtraction, never by [pos + n]. *)
let need c n =
  if n < 0 || c.pos > String.length c.s - n then
    fail "truncated input at offset %d (need %d bytes)" c.pos n

let remaining c = String.length c.s - c.pos

let get_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_i32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) in
  c.pos <- c.pos + 4;
  v

let get_raw_i64 c =
  need c 8;
  let v = String.get_int64_le c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_i64 c =
  let v = get_raw_i64 c in
  match Int64.unsigned_to_int v with
  | Some n -> n
  | None -> fail "64-bit value out of range at offset %d" (c.pos - 8)

let get_str c =
  let n = get_i32 c in
  if n < 0 then fail "negative string length";
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_int_array c =
  let n = get_i32 c in
  if n < 0 then fail "negative array length";
  need c (n * 4);
  Array.init n (fun _ -> get_i32 c)

let get_terminator c =
  match get_u8 c with
  | 0 ->
    let taken = get_i32 c in
    let fallthrough = get_i32 c in
    Cfg.Branch { taken; fallthrough }
  | 1 -> Cfg.Jump (get_i32 c)
  | 2 -> Cfg.Indirect (get_int_array c)
  | 3 ->
    let callee = get_i32 c in
    let return_to = get_i32 c in
    Cfg.Call { callee; return_to }
  | 4 -> Cfg.Return
  | 5 -> Cfg.Exit
  | tag -> fail "unknown terminator tag %d" tag

(* Count plausibility is bounded against the bytes actually present: every
   procedure record is at least 8 bytes, every block at least 13, every
   path at least 30.  This rejects corrupt counts before [Array.init]
   would allocate gigabytes (or raise an uncaught [Invalid_argument]). *)
let get_program c =
  let pname = get_str c in
  let main = get_i32 c in
  let n_procs = get_i32 c in
  if n_procs < 0 || n_procs > 1_000_000 || n_procs > remaining c / 8 then
    fail "implausible proc count %d" n_procs;
  let procs =
    Array.init n_procs (fun pid ->
        let name = get_str c in
        let blocks = get_int_array c in
        if Array.length blocks = 0 then fail "procedure %s has no blocks" name;
        { Cfg.pid; name; entry = blocks.(0); blocks })
  in
  let n_blocks = get_i32 c in
  if n_blocks < 0 || n_blocks > 100_000_000 || n_blocks > remaining c / 13 then
    fail "implausible block count %d" n_blocks;
  let blocks =
    Array.init n_blocks (fun id ->
        let proc = get_i32 c in
        let weight = get_i64 c in
        let term = get_terminator c in
        { Cfg.id; proc; weight; term })
  in
  { Cfg.pname; blocks; procs; main }

let end_kind_of_code = function
  | 0 -> Path.Backward_transfer
  | 1 -> Path.Matched_return
  | 2 -> Path.Cap
  | 3 -> Path.Program_end
  | tag -> fail "unknown end-kind tag %d" tag

let get_path c table expected_id ~n_blocks =
  let head = get_i32 c in
  let len = get_u8 c in
  if len > Signature.max_branches then fail "signature length %d over cap" len;
  let bits = get_raw_i64 c in
  let indirects = get_int_array c in
  let sigb = Signature.Builder.create ~head in
  for i = 0 to len - 1 do
    Signature.Builder.add_branch sigb
      ~taken:(Int64.(logand (shift_right_logical bits i) 1L) = 1L)
  done;
  Array.iter (fun target -> Signature.Builder.add_indirect sigb ~target) indirects;
  let signature = Signature.Builder.freeze sigb in
  let blocks = get_int_array c in
  if Array.length blocks = 0 then fail "path %d has no blocks" expected_id;
  Array.iter
    (fun b ->
       if b < 0 || b >= n_blocks then
         fail "path %d references block %d outside the program" expected_id b)
    blocks;
  let n_instrs = get_i64 c in
  let end_kind = end_kind_of_code (get_u8 c) in
  if Path_table.find table signature <> None then
    fail "duplicate path signature at id %d" expected_id;
  let id =
    Path_table.intern table signature ~blocks ~n_instrs ~n_branches:len ~end_kind
  in
  if id <> expected_id then fail "out-of-order path %d" expected_id

let get_stats c =
  let reason = match get_u8 c with 0 -> `Exited | 1 -> `Fuel | t -> fail "reason %d" t in
  let blocks = get_i64 c in
  let branches = get_i64 c in
  let calls = get_i64 c in
  let returns = get_i64 c in
  let indirects = get_i64 c in
  let backward_transfers = get_i64 c in
  let max_stack = get_i64 c in
  { Vm.reason; blocks; branches; calls; returns; indirects; backward_transfers;
    max_stack }

let read s ~pos =
  let c = { s; pos } in
  try
    need c (String.length magic);
    let m = String.sub c.s c.pos (String.length magic) in
    if m <> magic then raise (Parse (Printf.sprintf "bad magic %S" m));
    c.pos <- c.pos + String.length magic;
    let program = get_program c in
    let n_blocks = Array.length program.Cfg.blocks in
    let n_paths = get_i32 c in
    if n_paths < 0 || n_paths > 100_000_000 || n_paths > remaining c / 30 then
      fail "implausible path count %d" n_paths;
    let table = Path_table.create () in
    for id = 0 to n_paths - 1 do
      get_path c table id ~n_blocks
    done;
    let n_instances = get_i64 c in
    (* Each instance is 4 id bytes plus 1 arrival byte. *)
    if n_instances < 0 || n_instances > remaining c / 5 then
      fail "implausible instance count %d" n_instances;
    let instances = Array.init n_instances (fun _ -> get_i32 c) in
    need c n_instances;
    let arrivals = Bytes.of_string (String.sub c.s c.pos n_instances) in
    c.pos <- c.pos + n_instances;
    let vm_stats = get_stats c in
    (match Recorder.of_parts ~program ~table ~instances ~arrivals ~vm_stats with
     | Ok r -> Ok (r, c.pos)
     | Error e -> Error ("invalid recording: " ^ e))
  with Parse msg -> Error msg

(* ------------------------------------------------------------------ *)
(* HOTPATH3: framed, CRC-protected streaming format                    *)
(* ------------------------------------------------------------------ *)

module Stream = struct
  let legacy_magic = magic

  let magic = "HOTPATH3"

  let default_chunk_instances = Recorder.default_chunk_instances

  (* A frame is [kind:u8 | payload_len:i32le | payload | crc32:u32le],
     with the CRC covering the 5 header bytes and the payload, so a
     corrupted kind, length field, or payload byte is always detected. *)
  let max_frame_payload = 1 lsl 26

  let k_program = 0

  let k_paths = 1

  let k_instances = 2

  let k_end = 3

  (* Frame-splitting granularities, both comfortably under
     [max_frame_payload]: paths are ~30-200 bytes each, instances 5. *)
  let paths_per_frame = 16_384

  let instances_per_frame = 8_000_000

  (* ---------------- Writer ---------------- *)

  type writer = {
    w_sink : string -> unit;
    mutable w_paths_written : int;
    mutable w_instances_written : int;
    mutable w_finished : bool;
    w_payload : Buffer.t;
  }

  let write_frame w ~kind =
    let payload = Buffer.contents w.w_payload in
    Buffer.clear w.w_payload;
    let len = String.length payload in
    if len > max_frame_payload then
      invalid_arg
        (Printf.sprintf "Serialize.Stream: frame payload %d exceeds %d bytes"
           len max_frame_payload);
    let hdr = Bytes.create 5 in
    Bytes.set_uint8 hdr 0 kind;
    Bytes.set_int32_le hdr 1 (Int32.of_int len);
    let crc = Crc32.update_bytes Crc32.empty hdr ~pos:0 ~len:5 in
    let crc = Crc32.update_string crc payload ~pos:0 ~len in
    let tl = Bytes.create 4 in
    Bytes.set_int32_le tl 0 crc;
    w.w_sink (Bytes.to_string hdr);
    w.w_sink payload;
    w.w_sink (Bytes.to_string tl)

  let writer sink ~program =
    (match Cfg.validate program with
     | Ok () -> ()
     | Error e -> invalid_arg ("Serialize.Stream.writer: invalid program: " ^ e));
    let w =
      { w_sink = sink; w_paths_written = 0; w_instances_written = 0;
        w_finished = false; w_payload = Buffer.create (1 lsl 16) }
    in
    sink magic;
    add_program w.w_payload program;
    write_frame w ~kind:k_program;
    w

  let sync_paths w ~table =
    let np = Path_table.size table in
    while w.w_paths_written < np do
      let stop = min np (w.w_paths_written + paths_per_frame) in
      add_i32 w.w_payload (stop - w.w_paths_written);
      for id = w.w_paths_written to stop - 1 do
        add_path w.w_payload (Path_table.path table id)
      done;
      write_frame w ~kind:k_paths;
      w.w_paths_written <- stop
    done

  let write_chunk w ~table ~ids ~arrivals =
    if w.w_finished then
      invalid_arg "Serialize.Stream.write_chunk: writer already finished";
    let n = Array.length ids in
    if Bytes.length arrivals <> n then
      invalid_arg
        (Printf.sprintf
           "Serialize.Stream.write_chunk: %d arrivals for %d instances"
           (Bytes.length arrivals) n);
    sync_paths w ~table;
    let off = ref 0 in
    while !off < n do
      let len = min instances_per_frame (n - !off) in
      add_i32 w.w_payload len;
      for j = !off to !off + len - 1 do
        add_i32 w.w_payload ids.(j)
      done;
      Buffer.add_subbytes w.w_payload arrivals !off len;
      write_frame w ~kind:k_instances;
      w.w_instances_written <- w.w_instances_written + len;
      off := !off + len
    done

  let finish w ~table ~vm_stats =
    if w.w_finished then
      invalid_arg "Serialize.Stream.finish: writer already finished";
    sync_paths w ~table;
    add_stats w.w_payload vm_stats;
    add_i64 w.w_payload w.w_instances_written;
    add_i32 w.w_payload w.w_paths_written;
    write_frame w ~kind:k_end;
    w.w_finished <- true

  let write ?(chunk_instances = default_chunk_instances) (r : Recorder.t) sink =
    if chunk_instances < 1 then
      invalid_arg "Serialize.Stream.write: chunk_instances must be >= 1";
    let w = writer sink ~program:r.Recorder.program in
    let n = Array.length r.Recorder.instances in
    let off = ref 0 in
    while !off < n do
      let len = min chunk_instances (n - !off) in
      write_chunk w ~table:r.Recorder.table
        ~ids:(Array.sub r.Recorder.instances !off len)
        ~arrivals:(Bytes.sub r.Recorder.arrivals !off len);
      off := !off + len
    done;
    finish w ~table:r.Recorder.table ~vm_stats:r.Recorder.vm_stats

  let to_string ?chunk_instances r =
    let buf = Buffer.create (1 lsl 16) in
    write ?chunk_instances r (Buffer.add_string buf);
    Buffer.contents buf

  let save ?chunk_instances r ~path =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> write ?chunk_instances r (output_string oc))

  let record ?max_steps ?max_paths ?max_stack ?chunk_instances
      ?(events = Hotpath_util.Events.null) program behavior ~rng ~sink =
    (* Event emission observes the byte stream through a counting wrapper;
       the bytes written are identical with events on and off. *)
    let module Ev = Hotpath_util.Events in
    let bytes_out = ref 0 in
    let sink =
      if Ev.is_null events then sink
      else fun s ->
        bytes_out := !bytes_out + String.length s;
        sink s
    in
    let w = writer sink ~program in
    let instances = ref 0 and seq = ref 0 in
    Recorder.record_chunked ?max_steps ?max_paths ?max_stack ?chunk_instances
      program behavior ~rng
      ~flush:(fun ~table ~ids ~arrivals ->
        write_chunk w ~table ~ids ~arrivals;
        if not (Ev.is_null events) then begin
          instances := !instances + Array.length ids;
          Ev.record_chunk events ~seq:!seq ~instances:!instances
            ~paths:(Path_table.size table) ~bytes_out:!bytes_out;
          incr seq
        end)
      ~finish:(fun ~table ~vm_stats ->
        finish w ~table ~vm_stats;
        if not (Ev.is_null events) then
          Ev.record_done events ~instances:!instances
            ~paths:(Path_table.size table) ~bytes_out:!bytes_out)

  (* ---------------- Reader ---------------- *)

  type chunk = { ids : int array; arrivals : Bytes.t }

  type input = {
    in_read : Bytes.t -> int -> int -> int;
    in_close : unit -> unit;
  }

  type reader = {
    r_input : input;
    r_program : Cfg.program;
    r_table : Path_table.t;
    mutable r_instances : int;
    mutable r_vm_stats : Vm.run_stats option;
    mutable r_error : string option;
    mutable r_closed : bool;
  }

  let input_of_string s =
    let pos = ref 0 in
    {
      in_read =
        (fun b off len ->
           let n = min len (String.length s - !pos) in
           Bytes.blit_string s !pos b off n;
           pos := !pos + n;
           n);
      in_close = (fun () -> ());
    }

  let input_of_channel ic =
    {
      in_read =
        (fun b off len ->
           try Stdlib.input ic b off len
           with Sys_error e -> raise (Parse ("I/O error: " ^ e)));
      in_close = (fun () -> close_in_noerr ic);
    }

  let read_exactly inp buf ~len ~what =
    let off = ref 0 in
    while !off < len do
      let n = inp.in_read buf !off (len - !off) in
      if n = 0 then fail "truncated stream: EOF while reading %s" what;
      off := !off + n
    done

  let expect_eof inp =
    let b = Bytes.create 1 in
    if inp.in_read b 0 1 <> 0 then fail "trailing garbage after end frame"

  let read_frame inp =
    let hdr = Bytes.create 5 in
    read_exactly inp hdr ~len:5 ~what:"frame header";
    let kind = Bytes.get_uint8 hdr 0 in
    let len = Int32.to_int (Bytes.get_int32_le hdr 1) in
    if len < 0 || len > max_frame_payload then
      fail "implausible frame payload length %d" len;
    let payload = Bytes.create len in
    read_exactly inp payload ~len ~what:"frame payload";
    let tl = Bytes.create 4 in
    read_exactly inp tl ~len:4 ~what:"frame checksum";
    let expect = Bytes.get_int32_le tl 0 in
    let crc = Crc32.update_bytes Crc32.empty hdr ~pos:0 ~len:5 in
    let crc = Crc32.update_bytes crc payload ~pos:0 ~len in
    if crc <> expect then fail "frame checksum mismatch (kind %d)" kind;
    (kind, Bytes.unsafe_to_string payload)

  let check_consumed c =
    if c.pos <> String.length c.s then
      fail "frame has %d trailing bytes" (String.length c.s - c.pos)

  (* Frame-payload parsers, shared verbatim between the pull-based
     [reader] and the push-based [Decoder] so the two accept exactly the
     same streams and reject with exactly the same messages. *)

  let parse_program_payload payload =
    let c = { s = payload; pos = 0 } in
    let program = get_program c in
    check_consumed c;
    (match Cfg.validate program with
     | Ok () -> ()
     | Error e -> fail "invalid program: %s" e);
    program

  let parse_paths_payload c ~table ~n_blocks =
    let count = get_i32 c in
    if count < 0 || count > remaining c / 30 then
      fail "implausible path count %d" count;
    for _ = 1 to count do
      get_path c table (Path_table.size table) ~n_blocks
    done;
    check_consumed c

  let parse_instances_payload c ~table =
    let n = get_i32 c in
    if n < 0 || n > remaining c / 5 then fail "implausible instance count %d" n;
    let np = Path_table.size table in
    let ids =
      Array.init n (fun _ ->
          let id = get_i32 c in
          if id < 0 || id >= np then
            fail "instance path id %d out of range (%d paths)" id np;
          id)
    in
    need c n;
    let arrivals = Bytes.create n in
    Bytes.blit_string c.s c.pos arrivals 0 n;
    c.pos <- c.pos + n;
    Bytes.iter
      (fun ch ->
         if Char.code ch > 2 then fail "invalid arrival code %d" (Char.code ch))
      arrivals;
    check_consumed c;
    (ids, arrivals)

  let parse_end_payload c ~instances ~paths =
    let stats = get_stats c in
    let total_instances = get_i64 c in
    let total_paths = get_i32 c in
    check_consumed c;
    if total_instances <> instances then
      fail "end frame declares %d instances, stream carried %d" total_instances
        instances;
    if total_paths <> paths then
      fail "end frame declares %d paths, stream carried %d" total_paths paths;
    stats

  let open_input inp =
    try
      let m = Bytes.create (String.length magic) in
      read_exactly inp m ~len:(String.length magic) ~what:"magic";
      let ms = Bytes.to_string m in
      if ms <> magic then
        if ms = legacy_magic then
          fail "HOTPATH2 blob, not a stream (use Serialize.of_string/load)"
        else fail "bad magic %S" ms;
      let kind, payload = read_frame inp in
      if kind <> k_program then fail "expected program frame, got kind %d" kind;
      let program = parse_program_payload payload in
      Ok
        { r_input = inp; r_program = program; r_table = Path_table.create ();
          r_instances = 0; r_vm_stats = None; r_error = None; r_closed = false }
    with Parse msg ->
      inp.in_close ();
      Error msg

  let open_string s = open_input (input_of_string s)

  let open_file ~path =
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic -> open_input (input_of_channel ic)

  let program rd = rd.r_program

  let table rd = rd.r_table

  let instances_read rd = rd.r_instances

  let vm_stats rd = rd.r_vm_stats

  let close rd =
    if not rd.r_closed then begin
      rd.r_closed <- true;
      rd.r_input.in_close ()
    end

  (* The frame loop is a local [let rec] whose recursive call sits
     {e outside} any [try]: skipping a paths frame must be a tail call, or
     a stream padded with millions of (valid, empty) paths frames would
     overflow the stack — an uncaught [Stack_overflow] from a parser whose
     contract is "Error, never crash".  The single [try] wraps only the
     initial entry into the loop. *)
  let next rd =
    match rd.r_error with
    | Some e -> Error e
    | None ->
      if rd.r_vm_stats <> None then Ok None
      else begin
        let rec loop () =
          let kind, payload = read_frame rd.r_input in
          let c = { s = payload; pos = 0 } in
          if kind = k_paths then begin
            parse_paths_payload c ~table:rd.r_table
              ~n_blocks:(Array.length rd.r_program.Cfg.blocks);
            loop ()
          end
          else if kind = k_instances then begin
            let ids, arrivals = parse_instances_payload c ~table:rd.r_table in
            rd.r_instances <- rd.r_instances + Array.length ids;
            Ok (Some { ids; arrivals })
          end
          else if kind = k_end then begin
            let stats =
              parse_end_payload c ~instances:rd.r_instances
                ~paths:(Path_table.size rd.r_table)
            in
            expect_eof rd.r_input;
            rd.r_vm_stats <- Some stats;
            Ok None
          end
          else fail "unknown frame kind %d" kind
        in
        try loop ()
        with Parse msg ->
          rd.r_error <- Some msg;
          Error msg
      end

  let of_recorder ?chunk_instances r =
    match open_string (to_string ?chunk_instances r) with
    | Ok rd -> rd
    | Error e -> invalid_arg ("Serialize.Stream.of_recorder: " ^ e)

  let to_recorder rd =
    let ids = Vec.create () in
    let arrivals = Buffer.create 4096 in
    let rec drain () =
      match next rd with
      | Error e -> Error e
      | Ok (Some c) ->
        Array.iter (Vec.push ids) c.ids;
        Buffer.add_bytes arrivals c.arrivals;
        drain ()
      | Ok None -> (
          match rd.r_vm_stats with
          | None -> Error "stream ended without statistics"
          | Some vm_stats -> (
              match
                Recorder.of_parts ~program:rd.r_program ~table:rd.r_table
                  ~instances:(Vec.to_array ids)
                  ~arrivals:(Buffer.to_bytes arrivals) ~vm_stats
              with
              | Ok r -> Ok r
              | Error e -> Error ("invalid recording: " ^ e)))
    in
    let result = drain () in
    close rd;
    result

  (* ---------------- Push-based incremental decoder ---------------- *)

  module Decoder = struct
    type step =
      | Need_more
      | Program of Cfg.program
      | Chunk of chunk
      | End of Vm.run_stats

    type t = {
      mutable d_buf : Bytes.t;  (* live bytes are [d_head, d_tail) *)
      mutable d_head : int;
      mutable d_tail : int;
      mutable d_magic : bool;
      mutable d_program : Cfg.program option;
      d_table : Path_table.t;
      mutable d_instances : int;
      mutable d_stats : Vm.run_stats option;
      mutable d_error : string option;
    }

    let create () =
      { d_buf = Bytes.create 4096; d_head = 0; d_tail = 0; d_magic = false;
        d_program = None; d_table = Path_table.create (); d_instances = 0;
        d_stats = None; d_error = None }

    let buffered d = d.d_tail - d.d_head

    let program d = d.d_program

    let table d = d.d_table

    let instances_read d = d.d_instances

    let finished d = d.d_stats <> None

    let error d = d.d_error

    (* Amortized O(1) append: compact the live region to the front when
       the dead prefix dominates, double the buffer when it is full.
       [next] never copies payload bytes except to cut the one payload
       string a complete frame needs. *)
    let feed d s ~pos ~len =
      if pos < 0 || len < 0 || pos > String.length s - len then
        invalid_arg "Serialize.Stream.Decoder.feed: bad substring";
      if d.d_error = None then begin
        let live = buffered d in
        if d.d_tail + len > Bytes.length d.d_buf then begin
          let cap = ref (max 4096 (Bytes.length d.d_buf)) in
          while live + len > !cap do
            cap := !cap * 2
          done;
          let nb = if !cap = Bytes.length d.d_buf then d.d_buf else Bytes.create !cap in
          Bytes.blit d.d_buf d.d_head nb 0 live;
          d.d_buf <- nb;
          d.d_head <- 0;
          d.d_tail <- live
        end;
        Bytes.blit_string s pos d.d_buf d.d_tail len;
        d.d_tail <- d.d_tail + len
      end

    (* A complete, CRC-valid frame at the head of the buffer
       ([Some (kind, payload offset, payload length)]), or [None].
       Raises [Parse] on an implausible declared length or a checksum
       mismatch — both detectable before the payload is complete or
       copied.  Does not consume: {!drop_frame} advances past it. *)
    let peek_frame d =
      let avail = buffered d in
      if avail < 5 then None
      else begin
        let kind = Bytes.get_uint8 d.d_buf d.d_head in
        let len = Int32.to_int (Bytes.get_int32_le d.d_buf (d.d_head + 1)) in
        if len < 0 || len > max_frame_payload then
          fail "implausible frame payload length %d" len;
        if avail < 5 + len + 4 then None
        else begin
          let crc = Crc32.update_bytes Crc32.empty d.d_buf ~pos:d.d_head ~len:5 in
          let crc = Crc32.update_bytes crc d.d_buf ~pos:(d.d_head + 5) ~len in
          let expect = Bytes.get_int32_le d.d_buf (d.d_head + 5 + len) in
          if crc <> expect then fail "frame checksum mismatch (kind %d)" kind;
          Some (kind, d.d_head + 5, len)
        end
      end

    let drop_frame d ~off ~len =
      d.d_head <- off + len + 4;
      if d.d_head = d.d_tail then begin
        d.d_head <- 0;
        d.d_tail <- 0
      end

    let take_frame d =
      match peek_frame d with
      | None -> None
      | Some (kind, off, len) ->
        let payload = Bytes.sub_string d.d_buf off len in
        drop_frame d ~off ~len;
        Some (kind, payload)

    (* Tail-recursive for the same reason [reader.next]'s loop is: a
       stream padded with empty paths frames must not grow the stack. *)
    let rec step d =
      match d.d_stats with
      | Some stats ->
        if buffered d > 0 then fail "trailing garbage after end frame";
        End stats
      | None ->
        if not d.d_magic then begin
          if buffered d < String.length magic then Need_more
          else begin
            let m = Bytes.sub_string d.d_buf d.d_head (String.length magic) in
            if m <> magic then
              if m = legacy_magic then
                fail "HOTPATH2 blob, not a stream (use Serialize.of_string/load)"
              else fail "bad magic %S" m;
            d.d_head <- d.d_head + String.length magic;
            d.d_magic <- true;
            step d
          end
        end
        else
          match take_frame d with
          | None -> Need_more
          | Some (kind, payload) -> (
              let c = { s = payload; pos = 0 } in
              match d.d_program with
              | None ->
                if kind <> k_program then
                  fail "expected program frame, got kind %d" kind;
                let program = parse_program_payload payload in
                d.d_program <- Some program;
                Program program
              | Some program ->
                if kind = k_paths then begin
                  parse_paths_payload c ~table:d.d_table
                    ~n_blocks:(Array.length program.Cfg.blocks);
                  step d
                end
                else if kind = k_instances then begin
                  let ids, arrivals = parse_instances_payload c ~table:d.d_table in
                  d.d_instances <- d.d_instances + Array.length ids;
                  Chunk { ids; arrivals }
                end
                else if kind = k_end then begin
                  let stats =
                    parse_end_payload c ~instances:d.d_instances
                      ~paths:(Path_table.size d.d_table)
                  in
                  if buffered d > 0 then
                    fail "trailing garbage after end frame";
                  d.d_stats <- Some stats;
                  End stats
                end
                else fail "unknown frame kind %d" kind)

    let next d =
      match d.d_error with
      | Some e -> Error e
      | None -> (
          try Ok (step d)
          with Parse msg ->
            d.d_error <- Some msg;
            Error msg)

    (* ---- Batched decoding ---- *)

    type batch_step =
      | B_need_more
      | B_program of Cfg.program
      | B_batch
      | B_end of Vm.run_stats

    (* An instance frame validated and decoded straight out of a buffer
       region into [batch]: ids range-checked against the table, arrival
       bytes copied as they are — no payload string, no per-chunk
       ids/arrivals allocation.  Checks mirror [parse_instances_payload]
       (same messages, same order) so batch and chunk decoding accept
       exactly the same frames. *)
    let decode_instances_bytes buf ~off ~len ~table (batch : Batch.t) =
      if len < 4 then fail "truncated input at offset 0 (need 4 bytes)";
      let n = Int32.to_int (Bytes.get_int32_le buf off) in
      if n < 0 || n > (len - 4) / 5 then fail "implausible instance count %d" n;
      let np = Path_table.size table in
      Batch.ensure batch n;
      let ids = batch.Batch.ids and arrs = batch.Batch.arrs in
      let idoff = off + 4 in
      for j = 0 to n - 1 do
        let id = Int32.to_int (Bytes.get_int32_le buf (idoff + (4 * j))) in
        if id < 0 || id >= np then
          fail "instance path id %d out of range (%d paths)" id np;
        Array.unsafe_set ids j id
      done;
      let aoff = idoff + (4 * n) in
      for j = 0 to n - 1 do
        let a = Char.code (Bytes.unsafe_get buf (aoff + j)) in
        if a > 2 then fail "invalid arrival code %d" a;
        Bytes.unsafe_set arrs j (Char.unsafe_chr a)
      done;
      if len <> 4 + (5 * n) then
        fail "frame has %d trailing bytes" (len - (4 + (5 * n)));
      Batch.set_length batch n

    (* [step], with instance frames decoded from the ring buffer into the
       caller's batch.  Cold frames (program/paths/end) still go through
       the shared payload parsers.  Tail-recursive over paths frames like
       [step]. *)
    let rec step_batch d (batch : Batch.t) =
      match d.d_stats with
      | Some stats ->
        if buffered d > 0 then fail "trailing garbage after end frame";
        B_end stats
      | None ->
        if not d.d_magic then begin
          if buffered d < String.length magic then B_need_more
          else begin
            let m = Bytes.sub_string d.d_buf d.d_head (String.length magic) in
            if m <> magic then
              if m = legacy_magic then
                fail "HOTPATH2 blob, not a stream (use Serialize.of_string/load)"
              else fail "bad magic %S" m;
            d.d_head <- d.d_head + String.length magic;
            d.d_magic <- true;
            step_batch d batch
          end
        end
        else
          match peek_frame d with
          | None -> B_need_more
          | Some (kind, off, len) -> (
              match d.d_program with
              | None ->
                if kind <> k_program then
                  fail "expected program frame, got kind %d" kind;
                let payload = Bytes.sub_string d.d_buf off len in
                drop_frame d ~off ~len;
                let program = parse_program_payload payload in
                d.d_program <- Some program;
                B_program program
              | Some program ->
                if kind = k_paths then begin
                  let payload = Bytes.sub_string d.d_buf off len in
                  drop_frame d ~off ~len;
                  let c = { s = payload; pos = 0 } in
                  parse_paths_payload c ~table:d.d_table
                    ~n_blocks:(Array.length program.Cfg.blocks);
                  step_batch d batch
                end
                else if kind = k_instances then begin
                  decode_instances_bytes d.d_buf ~off ~len ~table:d.d_table
                    batch;
                  drop_frame d ~off ~len;
                  d.d_instances <- d.d_instances + Batch.length batch;
                  B_batch
                end
                else if kind = k_end then begin
                  let payload = Bytes.sub_string d.d_buf off len in
                  drop_frame d ~off ~len;
                  let c = { s = payload; pos = 0 } in
                  let stats =
                    parse_end_payload c ~instances:d.d_instances
                      ~paths:(Path_table.size d.d_table)
                  in
                  if buffered d > 0 then
                    fail "trailing garbage after end frame";
                  d.d_stats <- Some stats;
                  B_end stats
                end
                else fail "unknown frame kind %d" kind)

    let next_batch d batch =
      match d.d_error with
      | Some e -> Error e
      | None -> (
          try Ok (step_batch d batch)
          with Parse msg ->
            d.d_error <- Some msg;
            Error msg)
  end

  (* ---------------- Mapped (zero-copy) reader ---------------- *)

  module Mapped = struct
    type bigstring = Crc32.bigstring

    let ba_u8 (b : bigstring) i = Char.code (Bigarray.Array1.unsafe_get b i)

    (* Little-endian i32 straight off the map.  Sign extension is by the
       xor/subtract identity — [(v lsl 32) asr 32] would overflow the
       63-bit native int. *)
    let ba_i32 (b : bigstring) i =
      let v =
        ba_u8 b i
        lor (ba_u8 b (i + 1) lsl 8)
        lor (ba_u8 b (i + 2) lsl 16)
        lor (ba_u8 b (i + 3) lsl 24)
      in
      (v lxor 0x8000_0000) - 0x8000_0000

    let ba_sub_string (b : bigstring) ~pos ~len =
      String.init len (fun i -> Bigarray.Array1.unsafe_get b (pos + i))

    type t = {
      m_buf : bigstring;
      mutable m_pos : int;
      m_program : Cfg.program;
      m_table : Path_table.t;
      mutable m_instances : int;
      mutable m_vm_stats : Vm.run_stats option;
      mutable m_error : string option;
    }

    let program m = m.m_program

    let table m = m.m_table

    let instances_read m = m.m_instances

    let vm_stats m = m.m_vm_stats

    let error m = m.m_error

    (* Validate the frame at [p] against the mapped region — header and
       payload bounds, CRC-32 over the raw mapped bytes — and return
       [(kind, payload offset, payload length, next frame offset)]
       without copying anything. *)
    let frame_at (buf : bigstring) p =
      let dim = Bigarray.Array1.dim buf in
      if dim - p < 5 then
        fail "truncated stream: EOF while reading frame header";
      let kind = ba_u8 buf p in
      let len = ba_i32 buf (p + 1) in
      if len < 0 || len > max_frame_payload then
        fail "implausible frame payload length %d" len;
      if dim - (p + 5) < len then
        fail "truncated stream: EOF while reading frame payload";
      if dim - (p + 5 + len) < 4 then
        fail "truncated stream: EOF while reading frame checksum";
      let crc = Crc32.update_bigstring Crc32.empty buf ~pos:p ~len:(5 + len) in
      let expect = Int32.of_int (ba_i32 buf (p + 5 + len)) in
      if crc <> expect then fail "frame checksum mismatch (kind %d)" kind;
      (kind, p + 5, len, p + 5 + len + 4)

    let of_bigstring buf =
      try
        let mlen = String.length magic in
        if Bigarray.Array1.dim buf < mlen then
          fail "truncated stream: EOF while reading magic";
        let ms = ba_sub_string buf ~pos:0 ~len:mlen in
        if ms <> magic then
          if ms = legacy_magic then
            fail "HOTPATH2 blob, not a stream (use Serialize.of_string/load)"
          else fail "bad magic %S" ms;
        let kind, off, len, next = frame_at buf mlen in
        if kind <> k_program then
          fail "expected program frame, got kind %d" kind;
        let program = parse_program_payload (ba_sub_string buf ~pos:off ~len) in
        Ok
          { m_buf = buf; m_pos = next; m_program = program;
            m_table = Path_table.create (); m_instances = 0;
            m_vm_stats = None; m_error = None }
      with Parse msg -> Error msg

    let of_string s =
      let n = String.length s in
      let b = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
      for i = 0 to n - 1 do
        Bigarray.Array1.unsafe_set b i (String.unsafe_get s i)
      done;
      of_bigstring b

    let map_file ~path =
      match Unix.openfile path [ Unix.O_RDONLY ] 0 with
      | exception Unix.Unix_error (e, _, _) ->
        Error (path ^ ": " ^ Unix.error_message e)
      | fd -> (
          let close () = try Unix.close fd with Unix.Unix_error _ -> () in
          match (Unix.fstat fd).Unix.st_kind with
          | exception Unix.Unix_error (e, _, _) ->
            close ();
            Error (path ^ ": " ^ Unix.error_message e)
          | Unix.S_REG -> (
              (* mmap(2) rejects empty regions; an empty file is just a
                 truncated stream. *)
              if (Unix.fstat fd).Unix.st_size = 0 then begin
                close ();
                of_bigstring
                  (Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0)
              end
              else
                match
                  Unix.map_file fd Bigarray.char Bigarray.c_layout false
                    [| -1 |]
                with
                | exception Unix.Unix_error (e, _, _) ->
                  close ();
                  Error (path ^ ": mmap failed: " ^ Unix.error_message e)
                | exception Sys_error e ->
                  close ();
                  Error (path ^ ": mmap failed: " ^ e)
                | ga ->
                  (* The mapping outlives the descriptor; the bigarray
                     finalizer unmaps at GC. *)
                  close ();
                  of_bigstring (Bigarray.array1_of_genarray ga))
          | _ ->
            close ();
            Error
              (path
             ^ ": not a regular file — mmap ingest needs one (use open_file)"))

    (* The zero-copy hot path: an instance frame's count, ids, and
       arrival bytes are validated and copied directly from the mapped
       region into the caller's batch.  Checks mirror
       [parse_instances_payload]. *)
    let decode_instances m ~off ~len (batch : Batch.t) =
      let buf = m.m_buf in
      if len < 4 then fail "truncated input at offset 0 (need 4 bytes)";
      let n = ba_i32 buf off in
      if n < 0 || n > (len - 4) / 5 then fail "implausible instance count %d" n;
      let np = Path_table.size m.m_table in
      Batch.ensure batch n;
      let ids = batch.Batch.ids and arrs = batch.Batch.arrs in
      let idoff = off + 4 in
      for j = 0 to n - 1 do
        let id = ba_i32 buf (idoff + (4 * j)) in
        if id < 0 || id >= np then
          fail "instance path id %d out of range (%d paths)" id np;
        Array.unsafe_set ids j id
      done;
      let aoff = idoff + (4 * n) in
      for j = 0 to n - 1 do
        let a = ba_u8 buf (aoff + j) in
        if a > 2 then fail "invalid arrival code %d" a;
        Bytes.unsafe_set arrs j (Char.unsafe_chr a)
      done;
      if len <> 4 + (5 * n) then
        fail "frame has %d trailing bytes" (len - (4 + (5 * n)));
      Batch.set_length batch n

    (* Tail-recursive over paths frames, like [reader.next]. *)
    let next_batch m batch =
      match m.m_error with
      | Some e -> Error e
      | None ->
        if m.m_vm_stats <> None then Ok false
        else begin
          let rec loop () =
            let kind, off, len, next = frame_at m.m_buf m.m_pos in
            m.m_pos <- next;
            if kind = k_paths then begin
              let c = { s = ba_sub_string m.m_buf ~pos:off ~len; pos = 0 } in
              parse_paths_payload c ~table:m.m_table
                ~n_blocks:(Array.length m.m_program.Cfg.blocks);
              loop ()
            end
            else if kind = k_instances then begin
              decode_instances m ~off ~len batch;
              m.m_instances <- m.m_instances + Batch.length batch;
              Ok true
            end
            else if kind = k_end then begin
              let c = { s = ba_sub_string m.m_buf ~pos:off ~len; pos = 0 } in
              let stats =
                parse_end_payload c ~instances:m.m_instances
                  ~paths:(Path_table.size m.m_table)
              in
              if m.m_pos <> Bigarray.Array1.dim m.m_buf then
                fail "trailing garbage after end frame";
              m.m_vm_stats <- Some stats;
              Ok false
            end
            else fail "unknown frame kind %d" kind
          in
          try loop ()
          with Parse msg ->
            m.m_error <- Some msg;
            Error msg
        end
  end
end

(* ------------------------------------------------------------------ *)
(* Whole-recording entry points (both formats)                         *)
(* ------------------------------------------------------------------ *)

let of_string s =
  if String.length s >= String.length Stream.magic
     && String.sub s 0 (String.length Stream.magic) = Stream.magic
  then
    match Stream.open_string s with
    | Error _ as e -> e
    | Ok rd -> Stream.to_recorder rd
  else
    match read s ~pos:0 with
    | Error _ as e -> e
    | Ok (r, finish) ->
      if finish <> String.length s then
        Error (Printf.sprintf "trailing garbage after offset %d" finish)
      else Ok r

let save r ~path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
       let buf = Buffer.create (1 lsl 16) in
       write r buf;
       Buffer.output_buffer oc buf)

(* HOTPATH3 files are read frame-by-frame (peak memory O(frame), plus the
   materialized result); HOTPATH2 blobs fall back to the whole-file
   parser. *)
let load ~path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let sniff =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
           let n = in_channel_length ic in
           if n >= String.length Stream.magic then begin
             let m = really_input_string ic (String.length Stream.magic) in
             if m = Stream.magic then `Stream
             else begin
               seek_in ic 0;
               `Legacy (really_input_string ic n)
             end
           end
           else `Legacy (really_input_string ic n))
    in
    (match sniff with
     | `Stream -> (
         match Stream.open_file ~path with
         | Error _ as e -> e
         | Ok rd -> Stream.to_recorder rd)
     | `Legacy s -> of_string s)
