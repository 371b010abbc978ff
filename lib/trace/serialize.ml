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

let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

(* Every reader parses out of a bigstring view: a mapped file, the push
   decoder's buffer, the pull reader's frame buffer, or a HOTPATH2 blob
   copied in once.  Fields are read in place by word loads; the accesses
   are typed, so they compile to direct loads rather than polymorphic
   calls.  The load primitives are native-endian, hence the swaps. *)
type bigstring = Crc32.bigstring

external get32u : bigstring -> int -> int32 = "%caml_bigstring_get32u"

external get64u : bigstring -> int -> int64 = "%caml_bigstring_get64u"

external set64u : bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"

external string_get64u : string -> int -> int64 = "%caml_string_get64u"

external swap32 : int32 -> int32 = "%bswap_int32"

external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] u8 (b : bigstring) i = Char.code (Bigarray.Array1.unsafe_get b i)

(* Little-endian, sign-extended like [String.get_int32_le]. *)
let[@inline] i32 b i =
  let w = get32u b i in
  Int32.to_int (if Sys.big_endian then swap32 w else w)

let[@inline] raw_i64 b i =
  let w = get64u b i in
  if Sys.big_endian then swap64 w else w

let create_bigstring n = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n

(* [len] bytes of [s] from [src] into [b] at [dst], eight at a time. *)
let blit_string s ~src (b : bigstring) ~dst ~len =
  let i = ref 0 in
  while len - !i >= 8 do
    set64u b (dst + !i) (string_get64u s (src + !i));
    i := !i + 8
  done;
  for j = !i to len - 1 do
    Bigarray.Array1.unsafe_set b (dst + j) (String.unsafe_get s (src + j))
  done

let bigstring_of_string s =
  let b = create_bigstring (String.length s) in
  blit_string s ~src:0 b ~dst:0 ~len:(String.length s);
  b

let sub_bytes (b : bigstring) ~pos ~len =
  let s = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set s i (Bigarray.Array1.unsafe_get b (pos + i))
  done;
  s

(* A bounds-checked cursor over [buf.{base} .. buf.{lim - 1}]: one frame
   payload, or a whole HOTPATH2 blob.  Offsets in messages are relative
   to [base]. *)
type cursor = { buf : bigstring; base : int; lim : int; mutable pos : int }

let cursor buf ~off ~len = { buf; base = off; lim = off + len; pos = off }

(* Overflow-safe: [n] may be any 64-bit count from a corrupt input, so the
   bound is checked by subtraction, never by [pos + n]. *)
let need c n =
  if n < 0 || c.pos > c.lim - n then
    fail "truncated input at offset %d (need %d bytes)" (c.pos - c.base) n

let remaining c = c.lim - c.pos

let get_u8 c =
  need c 1;
  let v = u8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let get_i32 c =
  need c 4;
  let v = i32 c.buf c.pos in
  c.pos <- c.pos + 4;
  v

let get_raw_i64 c =
  need c 8;
  let v = raw_i64 c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let get_i64 c =
  let v = get_raw_i64 c in
  match Int64.unsigned_to_int v with
  | Some n -> n
  | None -> fail "64-bit value out of range at offset %d" (c.pos - 8 - c.base)

let get_str c =
  let n = get_i32 c in
  if n < 0 then fail "negative string length";
  need c n;
  let s = Bytes.unsafe_to_string (sub_bytes c.buf ~pos:c.pos ~len:n) in
  c.pos <- c.pos + n;
  s

(* [n] 32-bit values; the caller has not checked that they are there. *)
let get_i32s c n =
  need c (n * 4);
  let a = Array.make n 0 in
  for j = 0 to n - 1 do
    Array.unsafe_set a j (i32 c.buf (c.pos + (4 * j)))
  done;
  c.pos <- c.pos + (4 * n);
  a

let get_int_array c =
  let n = get_i32 c in
  if n < 0 then fail "negative array length";
  get_i32s c n
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
  if pos < 0 then invalid_arg "Serialize.read: negative offset";
  let c = { (cursor (bigstring_of_string s) ~off:0 ~len:(String.length s)) with pos } in
  try
    need c (String.length magic);
    let m = Bytes.to_string (sub_bytes c.buf ~pos:c.pos ~len:(String.length magic)) in
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
    let instances = get_i32s c n_instances in
    need c n_instances;
    let arrivals = sub_bytes c.buf ~pos:c.pos ~len:n_instances in
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

  (* ---------------- Reading: one frame core, three readers ----------------

     Every reader is the same state machine over a bigstring whose live
     bytes are [head, tail).  The readers differ only in how bytes reach
     it: the mapped reader's buffer is the whole file, the push decoder's
     grows as [feed] appends, and the pull reader refills its own from an
     input on demand.  One validator checks each frame, one set of
     payload parsers decodes it in place, and one step function sequences
     magic, program, paths, instances and end, so all three accept the
     same streams and reject them with the same messages. *)

  type chunk = { ids : int array; arrivals : Bytes.t }

  type input = {
    in_read : bigstring -> int -> int -> int;
        (* fill up to [len] bytes at [off]; 0 at end of input *)
    in_close : unit -> unit;
    mutable in_closed : bool;
  }

  type source =
    | Mapped  (* all bytes are present: a short frame is a truncation *)
    | Pushed  (* bytes arrive by [Decoder.feed]: a short frame waits *)
    | Pulled of input  (* bytes are read on demand: EOF is a truncation *)

  type core = {
    source : source;
    mutable buf : bigstring;
    mutable head : int;
    mutable tail : int;
    mutable started : bool;  (* the magic has been consumed *)
    mutable program : Cfg.program option;
    table : Path_table.t;
    mutable instances : int;
    mutable stats : Vm.run_stats option;
    mutable error : string option;
    chunk_batch : Batch.t;  (* decode target of the chunk-returning [next]s *)
  }

  let make source buf ~tail =
    { source; buf; head = 0; tail; started = false; program = None;
      table = Path_table.create (); instances = 0; stats = None; error = None;
      chunk_batch = Batch.create ~capacity:1 () }

  (* Room for [len] more bytes at [tail]: compact the live region to the
     front, doubling the buffer when it would not fit. *)
  let reserve c len =
    let cap = Bigarray.Array1.dim c.buf in
    if c.tail + len > cap then begin
      let live = c.tail - c.head in
      let ncap = ref (max 4096 cap) in
      while live + len > !ncap do
        ncap := !ncap * 2
      done;
      let nb = if !ncap = cap then c.buf else create_bigstring !ncap in
      Bigarray.Array1.(blit (sub c.buf c.head live) (sub nb 0 live));
      c.buf <- nb;
      c.head <- 0;
      c.tail <- live
    end

  (* The bytes a frame still needs have not arrived: [what] names the
     field they belong to. *)
  exception Short of string

  (* Make [n] bytes live at [head].  The pull reader grows its buffer at
     most twofold per read, so it only ever holds about twice the bytes
     the input actually delivered — a corrupt length field cannot make
     it allocate for a payload that never comes. *)
  let ensure c n what =
    if c.tail - c.head < n then
      match c.source with
      | Mapped | Pushed -> raise (Short what)
      | Pulled inp ->
        while c.tail - c.head < n do
          reserve c (min (n - (c.tail - c.head)) (Bigarray.Array1.dim c.buf));
          let got = inp.in_read c.buf c.tail (Bigarray.Array1.dim c.buf - c.tail) in
          if got = 0 then raise (Short what);
          c.tail <- c.tail + got
        done

  let more_bytes c =
    match ensure c 1 "" with () -> true | exception Short _ -> false

  (* The one frame validator: the frame at [head] is
     [kind:u8 | len:i32le | payload | crc32:u32le].  Checks the length
     bound before waiting for the payload, then the CRC over header and
     payload; consumes the frame and returns its offset. *)
  let frame c =
    ensure c 5 "frame header";
    let len = i32 c.buf (c.head + 1) in
    if len < 0 || len > max_frame_payload then
      fail "implausible frame payload length %d" len;
    ensure c (5 + len) "frame payload";
    ensure c (9 + len) "frame checksum";
    let p = c.head in
    let crc = Crc32.update_bigstring Crc32.empty c.buf ~pos:p ~len:(5 + len) in
    if crc <> Int32.of_int (i32 c.buf (p + 5 + len)) then
      fail "frame checksum mismatch (kind %d)" (u8 c.buf p);
    c.head <- p + 9 + len;
    p

  (* Payload parsers.  Each takes the payload's offset and length in the
     view and checks that it consumed the payload exactly. *)

  let check_consumed c =
    if c.pos <> c.lim then fail "frame has %d trailing bytes" (c.lim - c.pos)

  let parse_program buf ~off ~len =
    let c = cursor buf ~off ~len in
    let program = get_program c in
    check_consumed c;
    (match Cfg.validate program with
     | Ok () -> ()
     | Error e -> fail "invalid program: %s" e);
    program

  let parse_paths buf ~off ~len ~table ~n_blocks =
    let c = cursor buf ~off ~len in
    let count = get_i32 c in
    if count < 0 || count > remaining c / 30 then
      fail "implausible path count %d" count;
    for _ = 1 to count do
      get_path c table (Path_table.size table) ~n_blocks
    done;
    check_consumed c

  (* An instance frame straight into [batch]: ids range-checked against
     the table, then arrival codes.  Checks run in the order a cursor
     parse would make them. *)
  let decode_instances buf ~off ~len ~table (batch : Batch.t) =
    if len < 4 then fail "truncated input at offset 0 (need 4 bytes)";
    let n = i32 buf off in
    if n < 0 || n > (len - 4) / 5 then fail "implausible instance count %d" n;
    let np = Path_table.size table in
    Batch.ensure batch n;
    let ids = batch.Batch.ids and arrs = batch.Batch.arrs in
    let idoff = off + 4 in
    for j = 0 to n - 1 do
      let id = i32 buf (idoff + (4 * j)) in
      if id < 0 || id >= np then
        fail "instance path id %d out of range (%d paths)" id np;
      Array.unsafe_set ids j id
    done;
    let aoff = idoff + (4 * n) in
    for j = 0 to n - 1 do
      let a = u8 buf (aoff + j) in
      if a > 2 then fail "invalid arrival code %d" a;
      Bytes.unsafe_set arrs j (Char.unsafe_chr a)
    done;
    if len <> 4 + (5 * n) then
      fail "frame has %d trailing bytes" (len - (4 + (5 * n)));
    Batch.set_length batch n

  let parse_end buf ~off ~len ~instances ~paths =
    let c = cursor buf ~off ~len in
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

  type batch_step =
    | B_need_more
    | B_program of Cfg.program
    | B_batch
    | B_end of Vm.run_stats

  (* Tail-recursive over paths frames, and only ever entered from
     [advance]'s one [try]: a stream padded with millions of (valid,
     empty) paths frames must not grow the stack. *)
  let rec step c batch =
    match c.stats with
    | Some stats ->
      if c.tail > c.head then fail "trailing garbage after end frame";
      B_end stats
    | None -> (
        if not c.started then begin
          let mlen = String.length magic in
          ensure c mlen "magic";
          let m = Bytes.to_string (sub_bytes c.buf ~pos:c.head ~len:mlen) in
          if m <> magic then
            if m = legacy_magic then
              fail "HOTPATH2 blob, not a stream (use Serialize.of_string/load)"
            else fail "bad magic %S" m;
          c.head <- c.head + mlen;
          c.started <- true
        end;
        let p = frame c in
        let kind = u8 c.buf p and len = i32 c.buf (p + 1) and off = p + 5 in
        match c.program with
        | None ->
          if kind <> k_program then fail "expected program frame, got kind %d" kind;
          let program = parse_program c.buf ~off ~len in
          c.program <- Some program;
          B_program program
        | Some program ->
          if kind = k_paths then begin
            parse_paths c.buf ~off ~len ~table:c.table
              ~n_blocks:(Array.length program.Cfg.blocks);
            step c batch
          end
          else if kind = k_instances then begin
            decode_instances c.buf ~off ~len ~table:c.table batch;
            c.instances <- c.instances + Batch.length batch;
            B_batch
          end
          else if kind = k_end then begin
            let stats =
              parse_end c.buf ~off ~len ~instances:c.instances
                ~paths:(Path_table.size c.table)
            in
            if more_bytes c then fail "trailing garbage after end frame";
            c.stats <- Some stats;
            B_end stats
          end
          else fail "unknown frame kind %d" kind)

  (* Decode as far as the bytes allow.  After an [Error] the reader is
     poisoned and repeats it. *)
  let advance c batch =
    match c.error with
    | Some e -> Error e
    | None -> (
        let poison msg =
          c.error <- Some msg;
          Error msg
        in
        try Ok (step c batch) with
        | Short what -> (
            match c.source with
            | Pushed -> Ok B_need_more
            | Mapped | Pulled _ ->
              poison ("truncated stream: EOF while reading " ^ what))
        | Parse msg -> poison msg)

  (* The batch path as [Ok true] (a batch) / [Ok false] (end of stream),
     for the two readers that consume the program frame when opened. *)
  let next_batch_opened c batch =
    match advance c batch with
    | Ok B_batch -> Ok true
    | Ok (B_end _) -> Ok false
    | Ok (B_need_more | B_program _) -> assert false
    | Error _ as e -> e

  (* A copy out of the batch path, for the chunk-returning [next]s. *)
  let chunk_of c =
    let b = c.chunk_batch in
    { ids = Array.sub b.Batch.ids 0 (Batch.length b);
      arrivals = Bytes.sub b.Batch.arrs 0 (Batch.length b) }

  (* Open a pull or mapped reader: decode the magic and program frame. *)
  let open_core c =
    match advance c c.chunk_batch with
    | Ok (B_program _) -> Ok c
    | Ok (B_need_more | B_batch | B_end _) -> assert false
    | Error e -> Error e

  let program_of c =
    match c.program with Some p -> p | None -> assert false

  (* ---------------- Pull reader ---------------- *)

  type reader = core

  let input_of_string s =
    let pos = ref 0 in
    {
      in_read =
        (fun b off len ->
           let n = min len (String.length s - !pos) in
           blit_string s ~src:!pos b ~dst:off ~len:n;
           pos := !pos + n;
           n);
      in_close = (fun () -> ());
      in_closed = false;
    }

  let input_of_channel ic =
    let scratch = Bytes.create 65536 in
    {
      in_read =
        (fun b off len ->
           let n =
             try Stdlib.input ic scratch 0 (min len (Bytes.length scratch))
             with Sys_error e -> raise (Parse ("I/O error: " ^ e))
           in
           blit_string (Bytes.unsafe_to_string scratch) ~src:0 b ~dst:off ~len:n;
           n);
      in_close = (fun () -> close_in_noerr ic);
      in_closed = false;
    }

  let close rd =
    match rd.source with
    | Pulled inp when not inp.in_closed ->
      inp.in_closed <- true;
      inp.in_close ()
    | Pulled _ | Mapped | Pushed -> ()

  let open_input inp =
    let rd = make (Pulled inp) (create_bigstring 4096) ~tail:0 in
    match open_core rd with
    | Ok _ as ok -> ok
    | Error _ as e ->
      close rd;
      e

  let open_string s = open_input (input_of_string s)

  let open_file ~path =
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic -> open_input (input_of_channel ic)

  let program = program_of

  let table rd = rd.table

  let instances_read rd = rd.instances

  let vm_stats rd = rd.stats

  let next_batch = next_batch_opened

  let next rd =
    match next_batch rd rd.chunk_batch with
    | Ok true -> Ok (Some (chunk_of rd))
    | Ok false -> Ok None
    | Error _ as e -> e

  let of_recorder ?chunk_instances r =
    match open_string (to_string ?chunk_instances r) with
    | Ok rd -> rd
    | Error e -> invalid_arg ("Serialize.Stream.of_recorder: " ^ e)

  let to_recorder rd =
    let ids = Vec.create () in
    let arrivals = Buffer.create 4096 in
    let batch = rd.chunk_batch in
    let rec drain () =
      match next_batch rd batch with
      | Error e -> Error e
      | Ok true ->
        for j = 0 to Batch.length batch - 1 do
          Vec.push ids batch.Batch.ids.(j)
        done;
        Buffer.add_subbytes arrivals batch.Batch.arrs 0 (Batch.length batch);
        drain ()
      | Ok false -> (
          match rd.stats with
          | None -> Error "stream ended without statistics"
          | Some vm_stats -> (
              match
                Recorder.of_parts ~program:(program rd) ~table:rd.table
                  ~instances:(Vec.to_array ids)
                  ~arrivals:(Buffer.to_bytes arrivals) ~vm_stats
              with
              | Ok r -> Ok r
              | Error e -> Error ("invalid recording: " ^ e)))
    in
    let result = drain () in
    close rd;
    result

  (* ---------------- Push decoder ---------------- *)

  module Decoder = struct
    type step =
      | Need_more
      | Program of Cfg.program
      | Chunk of chunk
      | End of Vm.run_stats

    type t = core

    let create () = make Pushed (create_bigstring 4096) ~tail:0

    let buffered d = d.tail - d.head

    let program d = d.program

    let table d = d.table

    let instances_read d = d.instances

    let finished d = d.stats <> None

    let error d = d.error

    (* Amortized O(1) append, whatever the slice granularity. *)
    let feed d s ~pos ~len =
      if pos < 0 || len < 0 || pos > String.length s - len then
        invalid_arg "Serialize.Stream.Decoder.feed: bad substring";
      if d.error = None then begin
        reserve d len;
        blit_string s ~src:pos d.buf ~dst:d.tail ~len;
        d.tail <- d.tail + len
      end

    type nonrec batch_step = batch_step =
      | B_need_more
      | B_program of Cfg.program
      | B_batch
      | B_end of Vm.run_stats

    let next_batch = advance

    let next d =
      match advance d d.chunk_batch with
      | Ok B_need_more -> Ok Need_more
      | Ok (B_program p) -> Ok (Program p)
      | Ok B_batch -> Ok (Chunk (chunk_of d))
      | Ok (B_end stats) -> Ok (End stats)
      | Error _ as e -> e
  end

  (* ---------------- Mapped (zero-copy) reader ---------------- *)

  module Mapped = struct
    type nonrec bigstring = bigstring

    type t = core

    let program = program_of

    let table m = m.table

    let instances_read m = m.instances

    let vm_stats m = m.stats

    let error m = m.error

    let of_bigstring buf = open_core (make Mapped buf ~tail:(Bigarray.Array1.dim buf))

    let of_string s = of_bigstring (bigstring_of_string s)

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
                of_bigstring (create_bigstring 0)
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

    let next_batch = next_batch_opened
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
