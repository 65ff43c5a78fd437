(* [head.(b)] is the index of the first entry of bucket [b] or -1;
   entries live in growable parallel arrays [entry_key]/[entry_next].
   The slot of an entry is its index, so slots are insertion-ordered by
   construction. *)

type t = {
  hash : Hash_fn.t;
  mutable head : int array;
  mutable mask : int;
  mutable entry_key : int array;
  mutable entry_next : int array;
  mutable count : int;
}

let name = "chaining"

let rec next_pow2 n acc = if acc >= n then acc else next_pow2 n (acc * 2)

let create ?(hash = Hash_fn.Murmur3) ~expected () =
  if expected < 0 then invalid_arg "Chain_table.create";
  let cap = next_pow2 (max 16 expected) 16 in
  {
    hash;
    head = Array.make cap (-1);
    mask = cap - 1;
    entry_key = Array.make (max 16 expected) 0;
    entry_next = Array.make (max 16 expected) (-1);
    count = 0;
  }

let length t = t.count

let rehash t =
  let cap = 2 * (t.mask + 1) in
  t.head <- Array.make cap (-1);
  t.mask <- cap - 1;
  for e = 0 to t.count - 1 do
    let b = Hash_fn.apply t.hash t.entry_key.(e) land t.mask in
    t.entry_next.(e) <- t.head.(b);
    t.head.(b) <- e
  done

let ensure_entry_room t =
  let cap = Array.length t.entry_key in
  if t.count >= cap then begin
    let nk = Array.make (2 * cap) 0 and nn = Array.make (2 * cap) (-1) in
    Array.blit t.entry_key 0 nk 0 cap;
    Array.blit t.entry_next 0 nn 0 cap;
    t.entry_key <- nk;
    t.entry_next <- nn
  end

(* Walk the chain from entry [e] for [key]: its slot, or -1. *)
let rec chase t key e =
  if e < 0 || t.entry_key.(e) = key then e
  else chase t key t.entry_next.(e)

let find t key = chase t key t.head.(Hash_fn.apply t.hash key land t.mask)

(* One probe: the key is hashed once; a rehash only changes the mask
   applied to the hash. *)
let find_or_add t key =
  let h = Hash_fn.apply t.hash key in
  let e = chase t key t.head.(h land t.mask) in
  if e >= 0 then e
  else begin
    if t.count >= t.mask + 1 then rehash t;
    ensure_entry_room t;
    let e = t.count in
    let b = h land t.mask in
    t.entry_key.(e) <- key;
    t.entry_next.(e) <- t.head.(b);
    t.head.(b) <- e;
    t.count <- t.count + 1;
    e
  end

let mem t key = find t key >= 0

let iter f t =
  for e = 0 to t.count - 1 do
    f t.entry_key.(e) e
  done

let average_chain_length t =
  let chains = ref 0 and entries = ref 0 in
  Array.iter
    (fun h ->
      if h >= 0 then begin
        incr chains;
        let rec count e acc = if e < 0 then acc else count t.entry_next.(e) (acc + 1) in
        entries := !entries + count h 0
      end)
    t.head;
  if !chains = 0 then 0.0 else Float.of_int !entries /. Float.of_int !chains
