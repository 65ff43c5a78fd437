type t = { mutable state : int }

(* SplitMix64's golden-ratio gamma and finaliser constants, truncated to
   OCaml's 63-bit native int (arithmetic is mod 2^63, which preserves the
   avalanche behaviour well enough for dataset generation). *)
let golden_gamma = 0x1E3779B97F4A7C15

let create ~seed = { state = seed land max_int }

let copy t = { state = t.state }

(* SplitMix64 mixing; we keep the top 62 bits so results are non-negative
   OCaml ints. *)
let mix64 z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let next t =
  t.state <- t.state + golden_gamma;
  mix64 t.state land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec draw () =
    let r = next t in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then draw () else v
  in
  draw ()

let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  (* [hi - lo + 1] wraps to a non-positive value exactly when the range
     holds more values than [max_int].  It then covers at least half of
     all ints, so drawing full-width ints until one lands inside takes
     at most two draws on average. *)
  let width = hi - lo + 1 in
  if width > 0 then lo + int t width
  else
    let rec draw () =
      let low = next t in
      let v = low lor ((next t land 1) lsl (Sys.int_size - 1)) in
      if v >= lo && v <= hi then v else draw ()
    in
    draw ()

let float t bound = Float.of_int (next t) /. Float.of_int max_int *. bound

let bool t = next t land 1 = 1

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct t ~k ~bound =
  if k < 0 || k > bound then invalid_arg "Rng.sample_distinct";
  (* For small k relative to bound use a hash set of draws; otherwise use a
     partial Fisher-Yates over a materialised domain. *)
  if k * 4 <= bound && bound > 1024 then begin
    (* Open-addressing int set on a flat array (empty slot = -1): no boxed
       intermediates, so sampling sparse universes stays cheap at
       paper-scale k. *)
    let cap =
      let rec pow2 c = if c >= 4 * k then c else pow2 (2 * c) in
      pow2 64
    in
    let slots = Array.make cap (-1) in
    let mask = cap - 1 in
    let add_if_absent v =
      let i = ref (mix64 v land mask) in
      while slots.(!i) <> -1 && slots.(!i) <> v do
        i := (!i + 1) land mask
      done;
      if slots.(!i) = v then false
      else begin
        slots.(!i) <- v;
        true
      end
    in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t bound in
      if add_if_absent v then begin
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
  else begin
    let domain = Array.init bound (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in_range t ~lo:i ~hi:(bound - 1) in
      let tmp = domain.(i) in
      domain.(i) <- domain.(j);
      domain.(j) <- tmp
    done;
    Array.sub domain 0 k
  end

let split t = create ~seed:(next t)
