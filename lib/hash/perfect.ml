module Dense = struct
  type t = { lo : int; hi : int; size : int }

  let create ~lo ~hi =
    if hi < lo then invalid_arg "Perfect.Dense.create";
    match Dqo_data.Int_col.range lo hi with
    | Some size -> { lo; hi; size }
    | None -> invalid_arg "Perfect.Dense.create: domain too large"

  let of_keys keys =
    match Dqo_util.Int_array.min_max keys with
    | None -> None
    | Some (lo, hi) ->
      let distinct = Dqo_util.Int_array.count_distinct keys in
      match Dqo_data.Int_col.range lo hi with
      | Some size when size <= 2 * distinct -> Some { lo; hi; size }
      | Some _ | None -> None

  let slot t key =
    assert (key >= t.lo && key <= t.hi);
    key - t.lo

  let slot_opt t key =
    if key >= t.lo && key <= t.hi then Some (key - t.lo) else None

  let domain_size t = t.size
  let lo t = t.lo
  let hi t = t.hi
end

module Fks = struct
  (* Two-level FKS: a first-level hash splits the n keys into n buckets;
     bucket i with b_i keys gets a second-level table of size b_i^2 with a
     hash seed retried until injective.  Expected total second-level space
     is O(n).  Slots are made dense by a per-bucket base offset plus the
     rank of the occupied cell, assigned at build time.

     Both levels are flat [int] arrays: bucket [b]'s second-level table
     is cells [offset.(b) .. offset.(b) + |size.(b)| - 1] of [cell_slot]
     (cell -> global slot, or -1) and [cell_key] (cell -> key, for
     verification).  Seeds are stored pre-mixed, as {!Hash_fn.with_seed}
     applies them, so a lookup is two Murmur3 finalisers, two [mod]s
     and five array reads.

     Murmur3 reads the low 62 bits of its input only, so two keys that
     differ in the sign bit alone ("twins") collide under every seed.
     A bucket holding twins is marked by a negative size; its
     second-level hash folds the sign bit back in, which puts twins in
     neighbouring cells.  Every other bucket hashes as it always did. *)

  type t = {
    top_mix : int;
    n_buckets : int;
    mix : int array; (* bucket -> second-level seed, pre-mixed *)
    offset : int array; (* bucket -> first cell *)
    size : int array;
        (* bucket -> second-level size b^2, negated if the bucket holds
           twins; 0 if empty *)
    cell_slot : int array;
    cell_key : int array;
    count : int;
  }

  let hash ~seed key = Hash_fn.with_seed Hash_fn.Murmur3 ~seed key

  (* The second-level cell of [x = key lxor mix] in a table of [size]. *)
  let cell ~size x =
    if size > 0 then Hash_fn.murmur3 x mod size
    else (Hash_fn.murmur3 x lxor (x lsr 62)) mod -size

  let has_twins ks =
    List.exists
      (fun k -> List.exists (fun k' -> k' <> k && k' land max_int = k land max_int) ks)
      ks

  let build ?(seed = 0x5EED) keys =
    let distinct = Dqo_util.Int_array.distinct_sorted keys in
    let n = Array.length distinct in
    let n_buckets = max 1 n in
    (* Retry the top-level seed until sum of squared bucket sizes is within
       4n (expected constant retries). *)
    let rec pick_top_seed s =
      let sizes = Array.make n_buckets 0 in
      Array.iter
        (fun k ->
          let b = hash ~seed:s k mod n_buckets in
          sizes.(b) <- sizes.(b) + 1)
        distinct;
      let sq = Array.fold_left (fun acc c -> acc + (c * c)) 0 sizes in
      if sq <= (4 * n) + 4 then (s, sizes) else pick_top_seed (s + 1)
    in
    let top_seed, sizes = pick_top_seed seed in
    let members = Array.make n_buckets [] in
    Array.iter
      (fun k ->
        let b = hash ~seed:top_seed k mod n_buckets in
        members.(b) <- k :: members.(b))
      distinct;
    let size =
      Array.mapi
        (fun b c -> if has_twins members.(b) then -(c * c) else c * c)
        sizes
    in
    let offset = Array.make n_buckets 0 in
    let space = ref 0 in
    Array.iteri
      (fun b sz ->
        offset.(b) <- !space;
        space := !space + abs sz)
      size;
    let mix = Array.make n_buckets 0 in
    let cell_slot = Array.make !space (-1) in
    let cell_key = Array.make !space 0 in
    let next_slot = ref 0 in
    for b = 0 to n_buckets - 1 do
      let base = offset.(b) and tbl_size = abs size.(b) in
      if tbl_size > 0 then begin
        (* Retry second-level seed until injective on this bucket. *)
        let rec try_seed s =
          Array.fill cell_slot base tbl_size (-1);
          let m = Hash_fn.seed_mix s in
          let ok =
            List.for_all
              (fun k ->
                let c = base + cell ~size:size.(b) (k lxor m) in
                if cell_slot.(c) >= 0 then false
                else begin
                  cell_slot.(c) <- 0;
                  cell_key.(c) <- k;
                  true
                end)
              members.(b)
          in
          if ok then m else try_seed (s + 1)
        in
        mix.(b) <- try_seed (top_seed + b + 1);
        (* Assign dense global slots to occupied cells. *)
        for c = base to base + tbl_size - 1 do
          if cell_slot.(c) >= 0 then begin
            cell_slot.(c) <- !next_slot;
            incr next_slot
          end
        done
      end
    done;
    {
      top_mix = Hash_fn.seed_mix top_seed;
      n_buckets;
      mix;
      offset;
      size;
      cell_slot;
      cell_key;
      count = n;
    }

  (* An empty cell holds slot -1, so a key match on it still misses.
     Murmur3 is non-negative, so every index is in bounds. *)
  let find t key =
    let b = Hash_fn.murmur3 (key lxor t.top_mix) mod t.n_buckets in
    let size = Array.unsafe_get t.size b in
    if size = 0 then -1
    else begin
      let c =
        Array.unsafe_get t.offset b
        + cell ~size (key lxor Array.unsafe_get t.mix b)
      in
      if Array.unsafe_get t.cell_key c = key then Array.unsafe_get t.cell_slot c
      else -1
    end

  let slot t key =
    let s = find t key in
    if s < 0 then None else Some s

  let length t = t.count
  let space t = Array.length t.cell_slot
end
