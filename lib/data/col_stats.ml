type t = {
  sorted : bool;
  distinct : int;
  lo : int;
  hi : int;
  dense : bool;
  clustered : bool;
}

let is_clustered col =
  (* Equal values must form one contiguous run each: every value's first
     occurrence index must be preceded only by other runs; detect by
     checking that a value never reappears after its run ended. *)
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  let prev = ref min_int in
  let first = ref true in
  Int_col.iter_seg col ~f:(fun _ buf off len ->
      if !ok then begin
        let k = ref off in
        let stop = off + len in
        while !ok && !k < stop do
          let v = Array.unsafe_get buf !k in
          if !first || !prev <> v then begin
            if Hashtbl.mem seen v then ok := false else Hashtbl.add seen v ()
          end;
          first := false;
          prev := v;
          incr k
        done
      end);
  !ok

let analyze col =
  let n = Int_col.length col in
  if n = 0 then
    { sorted = true; distinct = 0; lo = 0; hi = -1; dense = false;
      clustered = true }
  else begin
    let sorted = Int_col.is_sorted col in
    let lo, hi = Int_col.min_max col in
    let distinct =
      if sorted then begin
        (* Streaming run count — no materialised copy. *)
        let d = ref 0 in
        let prev = ref min_int in
        let first = ref true in
        Int_col.iter_seg col ~f:(fun _ buf off len ->
            for k = off to off + len - 1 do
              let v = Array.unsafe_get buf k in
              if !first || v <> !prev then incr d;
              first := false;
              prev := v
            done);
        !d
      end
      else Dqo_util.Int_array.count_distinct (Int_col.to_array col)
    in
    let dense =
      match Int_col.range lo hi with
      | Some range -> range <= 2 * distinct
      | None -> false
    in
    let clustered = if sorted then true else is_clustered col in
    { sorted; distinct; lo; hi; dense; clustered }
  end

let density_ratio t =
  match Int_col.range t.lo t.hi with
  | Some range when range > 0 -> Float.of_int t.distinct /. Float.of_int range
  | Some _ -> 0.0
  | None ->
    Float.of_int t.distinct /. (Float.of_int t.hi -. Float.of_int t.lo +. 1.0)

let pp ppf t =
  Format.fprintf ppf
    "{sorted=%b; clustered=%b; dense=%b; distinct=%d; range=[%d,%d]}"
    t.sorted t.clustered t.dense t.distinct t.lo t.hi
