(* Fixed point of the recorder: for each suite benchmark at scale 0.05,
   the MD5 of the [Suite.record_stream] bytes (what [hotpath record
   --stream] writes), of the same stream flushed in 1000-instance chunks
   (so paths frames interleave with instance frames), and of the HOTPATH3
   encoding of the materialized [Suite.record], plus the VM statistics;
   then the same for [Suite.record_phased].  All digests cover the path
   table (ids in first-seen order), the instance and arrival streams and
   the VM statistics, so any change to what the recorder produces shows
   up here.  The output is diffed against
   fixtures/golden/record_digest.expected by the runtest alias. *)

module Recorder = Hotpath_trace.Recorder
module Stream = Hotpath_trace.Serialize.Stream
module Suite = Hotpath_workloads.Suite
module Vm = Hotpath_vm.Vm

let scale = 0.05

let md5 s = Digest.to_hex (Digest.string s)

let stats (s : Vm.run_stats) = Format.asprintf "%a" Vm.pp_run_stats s

let () =
  List.iter
    (fun b ->
       let buf = Buffer.create 65_536 in
       let summary = Suite.record_stream ~scale b ~sink:(Buffer.add_string buf) in
       let chunked = Buffer.create 65_536 in
       ignore
         (Suite.record_stream ~scale ~chunk_instances:1000 b
            ~sink:(Buffer.add_string chunked));
       let r = Suite.record ~scale b in
       Printf.printf "%s instances=%d paths=%d stream=%s chunked=%s record=%s %s\n"
         b.Suite.b_name summary.Recorder.cs_instances summary.Recorder.cs_paths
         (md5 (Buffer.contents buf))
         (md5 (Buffer.contents chunked))
         (md5 (Stream.to_string r))
         (stats summary.Recorder.cs_vm_stats))
    Suite.all;
  let r = Suite.record_phased () in
  Printf.printf "phased instances=%d paths=%d record=%s %s\n"
    (Recorder.num_instances r) (Recorder.num_paths r)
    (md5 (Stream.to_string r))
    (stats r.Recorder.vm_stats)
