(* Buckets are two parallel arrays [keys] and [slots]; [empty_key] marks a
   free bucket.  We resize at 70% load by rehashing into a table twice the
   size.  The sentinel [min_int] is a valid key too: its slot lives in
   [min_slot] instead of a bucket. *)

type t = {
  hash : Hash_fn.t;
  mutable keys : int array;
  mutable slots : int array;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable count : int;
  mutable min_slot : int; (* slot of the key [min_int], or -1 *)
}

let name = "linear-probing"
let empty_key = min_int

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let create ?(hash = Hash_fn.Murmur3) ~expected () =
  if expected < 0 then invalid_arg "Linear_probe.create";
  let cap = next_pow2 (max 16 (expected * 2)) 16 in
  {
    hash;
    keys = Array.make cap empty_key;
    slots = Array.make cap 0;
    mask = cap - 1;
    count = 0;
    min_slot = -1;
  }

let capacity t = t.mask + 1
let length t = t.count
let load_factor t = Float.of_int t.count /. Float.of_int (capacity t)

let grow t =
  let old_keys = t.keys and old_slots = t.slots in
  let cap = 2 * (t.mask + 1) in
  t.keys <- Array.make cap empty_key;
  t.slots <- Array.make cap 0;
  t.mask <- cap - 1;
  Array.iteri
    (fun i k ->
      if k <> empty_key then begin
        let j = ref (Hash_fn.apply t.hash k land t.mask) in
        while t.keys.(!j) <> empty_key do
          j := (!j + 1) land t.mask
        done;
        t.keys.(!j) <- k;
        t.slots.(!j) <- old_slots.(i)
      end)
    old_keys

let find_or_add t key =
  if key = empty_key then begin
    if t.min_slot < 0 then begin
      t.min_slot <- t.count;
      t.count <- t.count + 1
    end;
    t.min_slot
  end
  else begin
    if 10 * t.count >= 7 * (t.mask + 1) then grow t;
    let j = ref (Hash_fn.apply t.hash key land t.mask) in
    let result = ref (-1) in
    while !result < 0 do
      let k = t.keys.(!j) in
      if k = key then result := t.slots.(!j)
      else if k = empty_key then begin
        t.keys.(!j) <- key;
        t.slots.(!j) <- t.count;
        result := t.count;
        t.count <- t.count + 1
      end
      else j := (!j + 1) land t.mask
    done;
    !result
  end

let rec probe t key j =
  let k = t.keys.(j) in
  if k = key then t.slots.(j)
  else if k = empty_key then -1
  else probe t key ((j + 1) land t.mask)

let find t key =
  if key = empty_key then t.min_slot
  else probe t key (Hash_fn.apply t.hash key land t.mask)

let mem t key = find t key >= 0

let iter f t =
  if t.min_slot >= 0 then f empty_key t.min_slot;
  Array.iteri (fun i k -> if k <> empty_key then f k t.slots.(i)) t.keys
