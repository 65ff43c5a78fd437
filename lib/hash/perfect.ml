module Dense = struct
  type t = { lo : int; hi : int }

  let create ~lo ~hi =
    if hi < lo then invalid_arg "Perfect.Dense.create";
    { lo; hi }

  let of_keys keys =
    match Dqo_util.Int_array.min_max keys with
    | None -> None
    | Some (lo, hi) ->
      let distinct = Dqo_util.Int_array.count_distinct keys in
      match Dqo_data.Int_col.range lo hi with
      | Some range when range <= 2 * distinct -> Some { lo; hi }
      | Some _ | None -> None

  let slot t key =
    assert (key >= t.lo && key <= t.hi);
    key - t.lo

  let slot_opt t key =
    if key >= t.lo && key <= t.hi then Some (key - t.lo) else None

  let domain_size t = t.hi - t.lo + 1
  let lo t = t.lo
  let hi t = t.hi
end

module Fks = struct
  (* Two-level FKS: a first-level hash splits the n keys into n buckets;
     bucket i with b_i keys gets a second-level table of size b_i^2 with a
     hash seed retried until injective.  Expected total second-level space
     is O(n).  Slots are made dense by a per-bucket base offset plus the
     rank of the occupied cell, assigned at build time. *)

  type bucket = {
    seed : int;
    size : int; (* second-level table size, b^2 *)
    cells : int array; (* cell -> global slot, or -1 *)
    cell_key : int array; (* cell -> key, for verification *)
  }

  type t = {
    top_seed : int;
    n_buckets : int;
    buckets : bucket option array;
    count : int;
    space : int;
  }

  let hash ~seed key = Hash_fn.with_seed Hash_fn.Murmur3 ~seed key

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
    let next_slot = ref 0 in
    let space = ref 0 in
    let build_bucket b =
      let ks = members.(b) in
      match ks with
      | [] -> None
      | _ ->
        let bsize = sizes.(b) in
        let tbl_size = max 1 (bsize * bsize) in
        (* Retry second-level seed until injective on this bucket. *)
        let rec try_seed s =
          let cells = Array.make tbl_size (-1) in
          let cell_key = Array.make tbl_size 0 in
          let ok =
            List.for_all
              (fun k ->
                let c = hash ~seed:s k mod tbl_size in
                if cells.(c) >= 0 then false
                else begin
                  cells.(c) <- 0;
                  cell_key.(c) <- k;
                  true
                end)
              ks
          in
          if ok then (s, cells, cell_key) else try_seed (s + 1)
        in
        let s, cells, cell_key = try_seed (top_seed + b + 1) in
        (* Assign dense global slots to occupied cells. *)
        Array.iteri
          (fun c v ->
            if v >= 0 then begin
              cells.(c) <- !next_slot;
              incr next_slot
            end)
          cells;
        space := !space + tbl_size;
        Some { seed = s; size = tbl_size; cells; cell_key }
    in
    let buckets = Array.init n_buckets build_bucket in
    { top_seed; n_buckets; buckets; count = n; space = !space }

  let slot t key =
    if t.count = 0 then None
    else begin
      let b = hash ~seed:t.top_seed key mod t.n_buckets in
      match t.buckets.(b) with
      | None -> None
      | Some bk ->
        let c = hash ~seed:bk.seed key mod bk.size in
        if bk.cells.(c) >= 0 && bk.cell_key.(c) = key then Some bk.cells.(c)
        else None
    end

  let length t = t.count
  let space t = t.space
end
