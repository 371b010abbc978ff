(* A reusable dense view of a slice of the instance stream.

   Path ids and arrival codes, in exactly the representation a
   recording holds them ([Recorder.instances] and [Recorder.arrivals]):
   an int array and one code byte per instance.  The replay kernels
   walk a slice of those two arrays, so a decoded frame and a whole
   in-memory recording feed the very same loop with no conversion.

   A batch is a scratch buffer owned by whoever fills it.  Consumers
   (session walkers, replay lane groups) may read [ids]/[arrs] for
   indices [0, n), concurrently from several domains, but must never
   retain the arrays past the call that handed them the batch: the next
   fill reuses the same storage. *)

type t = {
  mutable n : int;  (* valid prefix length of both arrays below *)
  mutable ids : int array;  (* path ids *)
  mutable arrs : Bytes.t;  (* arrival codes, as in {!Recorder.arrivals} *)
}

let create ?(capacity = 1024) () =
  let capacity = max 1 capacity in
  { n = 0; ids = Array.make capacity 0; arrs = Bytes.make capacity '\000' }

let length t = t.n

let clear t = t.n <- 0

(* Capacity for [n] instances; amortized doubling so refills never
   reallocate at steady state. *)
let ensure t n =
  if n > Array.length t.ids then begin
    let cap = max n (2 * Array.length t.ids) in
    let ids = Array.make cap 0 and arrs = Bytes.make cap '\000' in
    Array.blit t.ids 0 ids 0 (Array.length t.ids);
    Bytes.blit t.arrs 0 arrs 0 (Bytes.length t.arrs);
    t.ids <- ids;
    t.arrs <- arrs
  end

let set_length t n =
  if n < 0 then invalid_arg "Batch.set_length: negative length";
  ensure t n;
  t.n <- n

(* Copy a pull-reader chunk (ids + arrival bytes) in.  No validation:
   callers gate ids/arrivals exactly as they would for the chunk
   itself. *)
let fill_of_chunk t ~ids ~arrivals =
  let n = Array.length ids in
  if Bytes.length arrivals < n then
    invalid_arg "Batch.fill_of_chunk: fewer arrivals than ids";
  ensure t n;
  (* A typed loop, not [Array.blit]: the runtime's blit cannot tell an
     int array from a boxed one and pays a write barrier per element
     into a major-heap destination, about 4x the cost of this copy. *)
  let dst = t.ids in
  for j = 0 to n - 1 do
    Array.unsafe_set dst j (Array.unsafe_get ids j)
  done;
  Bytes.blit arrivals 0 t.arrs 0 n;
  t.n <- n
