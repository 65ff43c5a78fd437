module Int_array = Dqo_util.Int_array
module Int_col = Dqo_data.Int_col

type algorithm = HJ | SPHJ | OJ | SOJ | BSJ

type result = { left : int array; right : int array }

let all = [ HJ; SPHJ; OJ; SOJ; BSJ ]

let name = function
  | HJ -> "HJ"
  | SPHJ -> "SPHJ"
  | OJ -> "OJ"
  | SOJ -> "SOJ"
  | BSJ -> "BSJ"

let cardinality r = Array.length r.left

(* Growable pair buffer. *)
type buf = { mutable l : int array; mutable r : int array; mutable len : int }

let buf_create () = { l = Array.make 64 0; r = Array.make 64 0; len = 0 }

let buf_push b li ri =
  if b.len >= Array.length b.l then begin
    let cap = 2 * Array.length b.l in
    let grow a = let n = Array.make cap 0 in Array.blit a 0 n 0 b.len; n in
    b.l <- grow b.l;
    b.r <- grow b.r
  end;
  b.l.(b.len) <- li;
  b.r.(b.len) <- ri;
  b.len <- b.len + 1

let buf_result b =
  { left = Array.sub b.l 0 b.len; right = Array.sub b.r 0 b.len }

(* Random-access element reader; flat columns read their backing array
   directly, chunked columns go through the shift/mask lookup. *)
let reader col =
  match Int_col.as_flat_array col with
  | Some a -> fun i -> a.(i)
  | None -> Int_col.get col

(* How the kernel finds a probe key's slot: [Offset] is SPHJ's [key -
   lo] over the dense domain [\[lo, hi\]], computed inline; [Lookup f]
   calls [f], which returns -1 when no build row can match.  A lookup
   is worth remembering between the probe side's two passes, a
   subtraction is cheaper to redo than to store. *)
type probe = Offset of { lo : int; hi : int } | Lookup of (int -> int)

(* The one kernel of every hashed join (HJ, SPHJ, the FKS join).  Build
   row [i]'s slot is [slots.(i) - base], which must lie in
   [0, n_slots) (else [Invalid_argument reject]); equal slots must mean
   equal keys.  SPHJ passes its key column as [slots] and [lo] as
   [base]; the others pass the slots they computed.

   The build side is laid out by slot, counting-sort style: the left
   row ids of slot [s] sit contiguously in [rows.(run.(s) .. run.(s +
   1) - 1)], most recent first.  A probe reads one run instead of
   chasing a chain of dependent loads through a row-sized [next] array,
   which missed the cache on every hop.  A counting pass over the probe
   side sizes the pair arrays exactly.  Pairs come in probe order, and
   for one probe row in descending build row order. *)
let slot_join ~n_slots ~slots ~base ~reject ~probe ~right =
  (* [run.(s)] counts the keys in slots [0..s], i.e. ends at the end of
     run [s]; the scatter then moves it back to the start of the run. *)
  let run = Array.make (n_slots + 1) 0 in
  Int_col.iter_seg slots ~f:(fun _ buf off len ->
      for k = off to off + len - 1 do
        (* A key far outside SPHJ's domain wraps, but never into
           [0, n_slots). *)
        let s = Array.unsafe_get buf k - base in
        if s < 0 || s >= n_slots then invalid_arg reject;
        Array.unsafe_set run s (Array.unsafe_get run s + 1)
      done);
  for s = 1 to n_slots do
    Array.unsafe_set run s (Array.unsafe_get run s + Array.unsafe_get run (s - 1))
  done;
  let rows = Array.make (Int_col.length slots) 0 in
  Int_col.iter_seg slots ~f:(fun pos buf off len ->
      for k = 0 to len - 1 do
        let s = Array.unsafe_get buf (off + k) - base in
        let p = Array.unsafe_get run s - 1 in
        Array.unsafe_set run s p;
        Array.unsafe_set rows p (pos + k)
      done);
  let matches = ref 0 in
  match probe with
  | Offset { lo; hi } ->
    Int_col.iter_seg right ~f:(fun _ buf off len ->
        for k = off to off + len - 1 do
          let key = Array.unsafe_get buf k in
          if key >= lo && key <= hi then
            matches :=
              !matches + Array.unsafe_get run (key - lo + 1)
              - Array.unsafe_get run (key - lo)
        done);
    let l = Array.make !matches 0 and r = Array.make !matches 0 in
    let out = ref 0 in
    Int_col.iter_seg right ~f:(fun pos buf off len ->
        for k = 0 to len - 1 do
          let key = Array.unsafe_get buf (off + k) in
          if key >= lo && key <= hi then
            for p = Array.unsafe_get run (key - lo)
                to Array.unsafe_get run (key - lo + 1) - 1 do
              Array.unsafe_set l !out (Array.unsafe_get rows p);
              Array.unsafe_set r !out (pos + k);
              incr out
            done
        done);
    { left = l; right = r }
  | Lookup find ->
    (* The counting pass keeps each probe row's slot, so the emitting
       pass neither reads the probe keys nor looks them up again. *)
    let probe_slot = Array.make (Int_col.length right) (-1) in
    Int_col.iter_seg right ~f:(fun pos buf off len ->
        for k = 0 to len - 1 do
          let s = find (Array.unsafe_get buf (off + k)) in
          if s >= 0 then begin
            Array.unsafe_set probe_slot (pos + k) s;
            matches := !matches + run.(s + 1) - Array.unsafe_get run s
          end
        done);
    let l = Array.make !matches 0 and r = Array.make !matches 0 in
    let out = ref 0 in
    for j = 0 to Array.length probe_slot - 1 do
      let s = Array.unsafe_get probe_slot j in
      if s >= 0 then
        for p = Array.unsafe_get run s to Array.unsafe_get run (s + 1) - 1 do
          Array.unsafe_set l !out (Array.unsafe_get rows p);
          Array.unsafe_set r !out j;
          incr out
        done
    done;
    { left = l; right = r }

(* [slot_of] applied to every key of [left], as a flat column. *)
let map_keys left ~slot_of =
  let slots = Array.make (Int_col.length left) 0 in
  Int_col.iter_seg left ~f:(fun pos buf off len ->
      for k = 0 to len - 1 do
        Array.unsafe_set slots (pos + k) (slot_of (Array.unsafe_get buf (off + k)))
      done);
  Int_col.of_array slots

let hash_join ?(hash = Dqo_hash.Hash_fn.Murmur3) ?(table = Grouping.Chaining)
    ~left ~right () =
  let n = Int_col.length left in
  (* All three table kinds assign dense insertion-ordered slots, which
     is all the kernel needs. *)
  let build (type t) (module T : Dqo_hash.Table_intf.TABLE with type t = t)
      (tbl : t) =
    let slots = map_keys left ~slot_of:(T.find_or_add tbl) in
    slot_join ~n_slots:(T.length tbl) ~slots ~base:0
      ~reject:"Join.hash_join: slot out of range" ~probe:(Lookup (T.find tbl))
      ~right
  in
  match table with
  | Grouping.Chaining ->
    build (module Dqo_hash.Chain_table)
      (Dqo_hash.Chain_table.create ~hash ~expected:n ())
  | Grouping.Linear_probing ->
    build (module Dqo_hash.Linear_probe)
      (Dqo_hash.Linear_probe.create ~hash ~expected:n ())
  | Grouping.Robin_hood ->
    build (module Dqo_hash.Robin_hood)
      (Dqo_hash.Robin_hood.create ~hash ~expected:n ())

let sph_join ~lo ~hi ~left ~right =
  if hi < lo then invalid_arg "Join.sph_join: hi < lo";
  let domain =
    match Int_col.range lo hi with
    | Some d when d < max_int -> d
    | Some _ | None -> invalid_arg "Join.sph_join: domain exceeds max_int"
  in
  slot_join ~n_slots:domain ~slots:left ~base:lo
    ~reject:"Join.sph_join: build key outside dense domain"
    ~probe:(Offset { lo; hi }) ~right

let fks_join fks ~left ~right =
  let module Fks = Dqo_hash.Perfect.Fks in
  slot_join ~n_slots:(Fks.length fks)
    ~slots:(map_keys left ~slot_of:(Fks.find fks))
    ~base:0
    ~reject:"Join.fks_join: build key outside the perfect hash's key set"
    ~probe:(Lookup (Fks.find fks)) ~right

(* Merge join over key/id accessors: [lkey]/[rkey] enumerate the inputs
   in key order, [lid]/[rid] map merge ranks back to row ids; equal-key
   runs produce their cross product. *)
let merge_over ~n ~m ~lkey ~rkey ~lid ~rid =
  let b = buf_create () in
  let i = ref 0 and j = ref 0 in
  while !i < n && !j < m do
    let lk = lkey !i and rk = rkey !j in
    if lk < rk then incr i
    else if lk > rk then incr j
    else begin
      (* Find both runs of the shared key. *)
      let i_end = ref (!i + 1) in
      while !i_end < n && lkey !i_end = lk do
        incr i_end
      done;
      let j_end = ref (!j + 1) in
      while !j_end < m && rkey !j_end = lk do
        incr j_end
      done;
      for a = !i to !i_end - 1 do
        for c = !j to !j_end - 1 do
          buf_push b (lid a) (rid c)
        done
      done;
      i := !i_end;
      j := !j_end
    end
  done;
  buf_result b

let id = fun (i : int) -> i

let merge_join ~left ~right =
  if not (Int_col.is_sorted left) then
    invalid_arg "Join.merge_join: left input not sorted";
  if not (Int_col.is_sorted right) then
    invalid_arg "Join.merge_join: right input not sorted";
  merge_over ~n:(Int_col.length left) ~m:(Int_col.length right)
    ~lkey:(reader left) ~rkey:(reader right) ~lid:id ~rid:id

let sorted_perm keys =
  let perm = Array.init (Array.length keys) (fun i -> i) in
  let cmp i j = Int.compare keys.(i) keys.(j) in
  Array.sort cmp perm;
  perm

let sort_merge_join ~left ~right =
  (* The permutation sort is whole-column; materialise once. *)
  let la = Int_col.unsafe_array left and ra = Int_col.unsafe_array right in
  let lp = sorted_perm la and rp = sorted_perm ra in
  merge_over ~n:(Array.length la) ~m:(Array.length ra)
    ~lkey:(fun i -> la.(lp.(i)))
    ~rkey:(fun j -> ra.(rp.(j)))
    ~lid:(fun i -> lp.(i))
    ~rid:(fun j -> rp.(j))

let binary_search_join ~left ~right =
  (* Run-length index of the build side: distinct sorted keys plus, per
     key, the slice of [perm] holding its row ids. *)
  let la = Int_col.unsafe_array left in
  let n = Array.length la in
  let perm = sorted_perm la in
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || la.(perm.(i)) <> la.(perm.(i - 1)) then incr distinct
  done;
  let keys = Array.make (max 1 !distinct) 0 in
  let offsets = Array.make (max 1 !distinct + 1) 0 in
  let d = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || la.(perm.(i)) <> la.(perm.(i - 1)) then begin
      keys.(!d) <- la.(perm.(i));
      offsets.(!d) <- i;
      incr d
    end
  done;
  offsets.(!d) <- n;
  let g = !d in
  let b = buf_create () in
  Int_col.iter_seg right ~f:(fun pos buf off len ->
      for x = 0 to len - 1 do
        let j = pos + x in
        let k = Array.unsafe_get buf (off + x) in
        let lo = ref 0 and hi = ref g in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if keys.(mid) < k then lo := mid + 1 else hi := mid
        done;
        if !lo < g && keys.(!lo) = k then
          for a = offsets.(!lo) to offsets.(!lo + 1) - 1 do
            buf_push b perm.(a) j
          done
      done);
  buf_result b

let run alg ~left ~right =
  match alg with
  | HJ -> hash_join ~left ~right ()
  | SPHJ ->
    if Int_col.length left = 0 then { left = [||]; right = [||] }
    else begin
      let lo, hi = Int_col.min_max left in
      sph_join ~lo ~hi ~left ~right
    end
  | OJ -> merge_join ~left ~right
  | SOJ -> sort_merge_join ~left ~right
  | BSJ -> binary_search_join ~left ~right

(* [run] with per-algorithm timing recorded into an observability
   registry: one operator entry per join algorithm. *)
let run_observed ?obs alg ~left ~right =
  match obs with
  | None -> run alg ~left ~right
  | Some m ->
    Dqo_obs.Metrics.timed m
      ~op:("join/" ^ name alg)
      ~rows_in:(Int_col.length left + Int_col.length right)
      ~rows_out:cardinality
      (fun () -> run alg ~left ~right)

let materialize ?only l r pairs =
  let module Relation = Dqo_data.Relation in
  let module Schema = Dqo_data.Schema in
  let la = Schema.arity (Relation.schema l) in
  let keep =
    match only with
    | None -> fun _ -> true
    | Some names -> fun (f : Schema.field) -> List.mem f.Schema.name names
  in
  let gathered =
    List.concat
      (List.mapi
         (fun i f ->
           if not (keep f) then []
           else if i < la then
             [ (f, Dqo_data.Column.take (Relation.column_at l i) pairs.left) ]
           else
             [ (f, Dqo_data.Column.take (Relation.column_at r (i - la)) pairs.right) ])
         (Schema.fields (Schema.concat (Relation.schema l) (Relation.schema r))))
  in
  Relation.create (Schema.create (List.map fst gathered)) (List.map snd gathered)

let nested_loop_reference ~left ~right =
  let b = buf_create () in
  let getl = reader left and getr = reader right in
  for i = 0 to Int_col.length left - 1 do
    for j = 0 to Int_col.length right - 1 do
      if getl i = getr j then buf_push b i j
    done
  done;
  buf_result b
