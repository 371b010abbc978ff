(* Seeded inputs.  One run seed fixes every generator seed and every op
   order, so the same seed always replays the same traces in the same
   order, and another seed gives other traces. *)

module Suite = Hotpath_workloads.Suite

(* Each benchmark keeps its calibrated generator spec and flow budget;
   only its generator seed moves with the run seed.  [variant] derives
   further programs from the same spec: a workload that replays several
   variants of each benchmark averages over program shapes, so its
   numbers move less from one seed to the next. *)
let bench ?(variant = 0) ~seed name =
  let b = Suite.find_exn name in
  { b with Suite.b_seed = Hashtbl.hash (b.Suite.b_seed, seed, variant, "perfbench") }

(* [names] crossed with [variants] variants each, name-major. *)
let variants ~seed ~variants names =
  Array.concat
    (List.map
       (fun n -> Array.init variants (fun variant -> bench ~variant ~seed n))
       (Array.to_list names))

(* Independent op-order streams per use, all derived from the run seed. *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The HOTPATH3 bytes of a seeded recording, as [Suite.record_stream]
   emits them. *)
let trace_bytes ~scale b =
  let buf = Buffer.create (1 lsl 20) in
  ignore (Suite.record_stream ~scale b ~sink:(Buffer.add_string buf));
  Buffer.contents buf
