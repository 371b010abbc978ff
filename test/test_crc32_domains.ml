(* First CRC from several domains at once.

   This runs in its own executable so that nothing earlier in the
   process has checksummed anything: the domains below are the first
   users of [Crc32]'s tables, released together by a spin barrier.
   Tables built lazily on first use raise [CamlinternalLazy.Undefined]
   here when two domains force them at the same time. *)

module Crc32 = Hotpath_util.Crc32

let domains = 4

(* The CRC-32 check value: the digest of "123456789". *)
let check_value = 0xCBF43926l

let test_first_use_from_many_domains () =
  let ready = Atomic.make 0 in
  let input = "123456789" in
  let big =
    Bigarray.Array1.init Bigarray.char Bigarray.c_layout (String.length input)
      (String.get input)
  in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let a = Crc32.digest_string input in
    let b = Crc32.update_bigstring Crc32.empty big ~pos:0 ~len:(Bigarray.Array1.dim big) in
    (a, b)
  in
  let ds = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter
    (fun d ->
       let a, b = Domain.join d in
       Alcotest.(check int32) "digest_string" check_value a;
       Alcotest.(check int32) "update_bigstring" check_value b)
    ds

let () =
  Alcotest.run "crc32-domains"
    [
      ( "crc32.domains",
        [
          Alcotest.test_case "first use from several domains at once" `Quick
            test_first_use_from_many_domains;
        ] );
    ]
