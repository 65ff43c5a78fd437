(* Parallel arrays [keys]/[slots]/[dist] where [dist.(i)] is the probe
   distance of the resident of bucket [i] from its home bucket, and -1
   marks an empty bucket.  Robin Hood insertion swaps the candidate with
   any resident that is closer to home. *)

type t = {
  hash : Hash_fn.t;
  mutable keys : int array;
  mutable slots : int array;
  mutable dist : int array;
  mutable mask : int;
  mutable count : int;
}

let name = "robin-hood"

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let create ?(hash = Hash_fn.Murmur3) ~expected () =
  if expected < 0 then invalid_arg "Robin_hood.create";
  let cap = next_pow2 (max 16 (expected * 2)) 16 in
  {
    hash;
    keys = Array.make cap 0;
    slots = Array.make cap 0;
    dist = Array.make cap (-1);
    mask = cap - 1;
    count = 0;
  }

let length t = t.count

(* Insert a (key, slot) pair known to be absent; returns unit. *)
let rec insert_absent t key slot =
  if 10 * t.count >= 7 * (t.mask + 1) then grow t;
  let key = ref key and slot = ref slot and d = ref 0 in
  let j = ref (Hash_fn.apply t.hash !key land t.mask) in
  let placed = ref false in
  while not !placed do
    if t.dist.(!j) < 0 then begin
      t.keys.(!j) <- !key;
      t.slots.(!j) <- !slot;
      t.dist.(!j) <- !d;
      placed := true
    end
    else begin
      if t.dist.(!j) < !d then begin
        (* Steal from the richer resident and continue inserting it. *)
        let k = t.keys.(!j) and s = t.slots.(!j) and dd = t.dist.(!j) in
        t.keys.(!j) <- !key;
        t.slots.(!j) <- !slot;
        t.dist.(!j) <- !d;
        key := k;
        slot := s;
        d := dd
      end;
      j := (!j + 1) land t.mask;
      incr d
    end
  done;
  t.count <- t.count + 1

and grow t =
  let old_keys = t.keys and old_slots = t.slots and old_dist = t.dist in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap 0;
  t.slots <- Array.make cap 0;
  t.dist <- Array.make cap (-1);
  t.mask <- cap - 1;
  t.count <- 0;
  Array.iteri
    (fun i d -> if d >= 0 then insert_absent t old_keys.(i) old_slots.(i))
    old_dist

let rec probe t key j d =
  let dj = t.dist.(j) in
  if dj < d then -1 (* empty (-1) or a resident closer to home *)
  else if t.keys.(j) = key then t.slots.(j)
  else probe t key ((j + 1) land t.mask) (d + 1)

let find t key = probe t key (Hash_fn.apply t.hash key land t.mask) 0

let find_or_add t key =
  let slot = find t key in
  if slot >= 0 then slot
  else begin
    let slot = t.count in
    insert_absent t key slot;
    slot
  end

let mem t key = find t key >= 0

let iter f t =
  Array.iteri (fun i d -> if d >= 0 then f t.keys.(i) t.slots.(i)) t.dist

let max_probe_length t = Array.fold_left max 0 t.dist
