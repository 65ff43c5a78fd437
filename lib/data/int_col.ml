type width = W32 | W64
type backend = Flat | Chunked of width

type chunks =
  | B32 of (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t array
  | B64 of (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t array

type big = { data : chunks; len : int; shift : int; mask : int }
type t = Arr of int array | Big of big | Const of { len : int; v : int }

let default_chunk_rows = 1 lsl 16

let shift_of chunk_rows =
  if chunk_rows <= 0 || chunk_rows land (chunk_rows - 1) <> 0 then
    invalid_arg "Int_col: chunk_rows must be a positive power of two";
  let rec go s = if 1 lsl s = chunk_rows then s else go (s + 1) in
  go 0

let length = function
  | Arr a -> Array.length a
  | Big b -> b.len
  | Const c -> c.len

let backend = function
  | Arr _ -> Flat
  | Big { data = B32 _; _ } -> Chunked W32
  | Big { data = B64 _; _ } -> Chunked W64
  | Const _ -> Flat

let of_array a = Arr a

let const n v =
  if n < 0 then invalid_arg "Int_col.const: negative length";
  Const { len = n; v }

let chunk_dims ~chunk_rows len =
  let n_chunks = (len + chunk_rows - 1) / chunk_rows in
  Array.init n_chunks (fun c ->
      min chunk_rows (len - (c * chunk_rows)))

let create_chunked ?(chunk_rows = default_chunk_rows) width len =
  if len < 0 then invalid_arg "Int_col.create_chunked: negative length";
  let shift = shift_of chunk_rows in
  let dims = chunk_dims ~chunk_rows len in
  let data =
    match width with
    | W32 ->
      B32
        (Array.map
           (fun d -> Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout d)
           dims)
    | W64 ->
      B64
        (Array.map
           (fun d -> Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout d)
           dims)
  in
  Big { data; len; shift; mask = chunk_rows - 1 }

let map_file ?(chunk_rows = default_chunk_rows) path width len =
  if len < 0 then invalid_arg "Int_col.map_file: negative length";
  let shift = shift_of chunk_rows in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let slice whole =
        let chunk_rows = 1 lsl shift in
        Array.init
          ((len + chunk_rows - 1) / chunk_rows)
          (fun c ->
            Bigarray.Array1.sub whole (c * chunk_rows)
              (min chunk_rows (len - (c * chunk_rows))))
      in
      let data =
        match width with
        | W32 ->
          let ga =
            Unix.map_file fd Bigarray.int32 Bigarray.c_layout true [| len |]
          in
          B32 (slice (Bigarray.array1_of_genarray ga))
        | W64 ->
          let ga =
            Unix.map_file fd Bigarray.int64 Bigarray.c_layout true [| len |]
          in
          B64 (slice (Bigarray.array1_of_genarray ga))
      in
      Big { data; len; shift; mask = chunk_rows - 1 })

let check_bounds name t i =
  if i < 0 || i >= length t then invalid_arg name

let get t i =
  check_bounds "Int_col.get" t i;
  match t with
  | Arr a -> Array.unsafe_get a i
  | Const c -> c.v
  | Big b -> (
    let c = i lsr b.shift and o = i land b.mask in
    match b.data with
    | B32 d -> Int32.to_int (Bigarray.Array1.unsafe_get (Array.unsafe_get d c) o)
    | B64 d -> Int64.to_int (Bigarray.Array1.unsafe_get (Array.unsafe_get d c) o))

let fits32 v = v >= -0x8000_0000 && v <= 0x7fff_ffff

let check32 name v =
  if not (fits32 v) then
    invalid_arg (name ^ ": value does not fit in a 32-bit chunk")

let set t i v =
  check_bounds "Int_col.set" t i;
  match t with
  | Arr a -> Array.unsafe_set a i v
  | Const _ -> invalid_arg "Int_col.set: constant column"
  | Big b -> (
    let c = i lsr b.shift and o = i land b.mask in
    match b.data with
    | B32 d ->
      check32 "Int_col.set" v;
      Bigarray.Array1.unsafe_set (Array.unsafe_get d c) o (Int32.of_int v)
    | B64 d ->
      Bigarray.Array1.unsafe_set (Array.unsafe_get d c) o (Int64.of_int v))

let check_range name t pos len =
  if pos < 0 || len < 0 || pos + len > length t then invalid_arg name

(* Apply [span chunk_idx chunk_off global_pos n] to the maximal
   chunk-aligned sub-spans of [pos, pos+len). *)
let iter_spans b ~pos ~len span =
  let i = ref pos in
  let remaining = ref len in
  while !remaining > 0 do
    let c = !i lsr b.shift and o = !i land b.mask in
    let n = min !remaining (b.mask + 1 - o) in
    span c o !i n;
    i := !i + n;
    remaining := !remaining - n
  done

let blit t ~pos dst ~dst_pos ~len =
  check_range "Int_col.blit" t pos len;
  if dst_pos < 0 || dst_pos + len > Array.length dst then
    invalid_arg "Int_col.blit: destination out of range";
  match t with
  | Arr a -> Array.blit a pos dst dst_pos len
  | Const c -> Array.fill dst dst_pos len c.v
  | Big b ->
    iter_spans b ~pos ~len (fun c o gpos n ->
        let d = dst_pos + (gpos - pos) in
        match b.data with
        | B32 ch ->
          let ba = Array.unsafe_get ch c in
          for k = 0 to n - 1 do
            Array.unsafe_set dst (d + k)
              (Int32.to_int (Bigarray.Array1.unsafe_get ba (o + k)))
          done
        | B64 ch ->
          let ba = Array.unsafe_get ch c in
          for k = 0 to n - 1 do
            Array.unsafe_set dst (d + k)
              (Int64.to_int (Bigarray.Array1.unsafe_get ba (o + k)))
          done)

let blit_from_array src ~src_pos t ~dst_pos ~len =
  check_range "Int_col.blit_from_array" t dst_pos len;
  if src_pos < 0 || src_pos + len > Array.length src then
    invalid_arg "Int_col.blit_from_array: source out of range";
  match t with
  | Arr a -> Array.blit src src_pos a dst_pos len
  | Const _ -> invalid_arg "Int_col.blit_from_array: constant column"
  | Big b ->
    iter_spans b ~pos:dst_pos ~len (fun c o gpos n ->
        let s = src_pos + (gpos - dst_pos) in
        match b.data with
        | B32 ch ->
          let ba = Array.unsafe_get ch c in
          for k = 0 to n - 1 do
            let v = Array.unsafe_get src (s + k) in
            check32 "Int_col.blit_from_array" v;
            Bigarray.Array1.unsafe_set ba (o + k) (Int32.of_int v)
          done
        | B64 ch ->
          let ba = Array.unsafe_get ch c in
          for k = 0 to n - 1 do
            Bigarray.Array1.unsafe_set ba (o + k)
              (Int64.of_int (Array.unsafe_get src (s + k)))
          done)

let fill_range t ~pos ~len ~f =
  check_range "Int_col.fill_range" t pos len;
  match t with
  | Arr a ->
    for i = pos to pos + len - 1 do
      Array.unsafe_set a i (f i)
    done
  | Const _ -> invalid_arg "Int_col.fill_range: constant column"
  | Big b ->
    iter_spans b ~pos ~len (fun c o gpos n ->
        match b.data with
        | B32 ch ->
          let ba = Array.unsafe_get ch c in
          for k = 0 to n - 1 do
            let v = f (gpos + k) in
            check32 "Int_col.fill_range" v;
            Bigarray.Array1.unsafe_set ba (o + k) (Int32.of_int v)
          done
        | B64 ch ->
          let ba = Array.unsafe_get ch c in
          for k = 0 to n - 1 do
            Bigarray.Array1.unsafe_set ba (o + k) (Int64.of_int (f (gpos + k)))
          done)

let init ?(backend = Flat) ?chunk_rows n f =
  match backend with
  | Flat ->
    if n < 0 then invalid_arg "Int_col.init: negative length";
    Arr (Array.init n f)
  | Chunked w ->
    let t = create_chunked ?chunk_rows w n in
    fill_range t ~pos:0 ~len:n ~f;
    t

let to_array t =
  let n = length t in
  let dst = Array.make n 0 in
  blit t ~pos:0 dst ~dst_pos:0 ~len:n;
  dst

let unsafe_array = function Arr a -> a | (Big _ | Const _) as t -> to_array t
let as_flat_array = function Arr a -> Some a | Big _ | Const _ -> None

let iter_seg_range t ~pos ~len ~f =
  check_range "Int_col.iter_seg_range" t pos len;
  if len > 0 then
    match t with
    | Arr a -> f pos a pos len
    | Const c ->
      let seg = min len default_chunk_rows in
      let buf = Array.make seg c.v in
      let p = ref pos in
      let stop = pos + len in
      while !p < stop do
        let n = min seg (stop - !p) in
        f !p buf 0 n;
        p := !p + n
      done
    | Big b ->
      let seg = min len (b.mask + 1) in
      let buf = Array.make seg 0 in
      let p = ref pos in
      let stop = pos + len in
      while !p < stop do
        let n = min seg (stop - !p) in
        blit t ~pos:!p buf ~dst_pos:0 ~len:n;
        f !p buf 0 n;
        p := !p + n
      done

let iter_seg t ~f = iter_seg_range t ~pos:0 ~len:(length t) ~f

let iter_seg2_range a b ~pos ~len ~f =
  if length b <> length a then
    invalid_arg "Int_col.iter_seg2_range: length mismatch";
  check_range "Int_col.iter_seg2_range" a pos len;
  if len > 0 then
    match (a, b) with
    | Arr x, Arr y -> f pos x pos y pos len
    | _ ->
      let seg_of = function
        | Big g -> g.mask + 1
        | Arr _ | Const _ -> default_chunk_rows
      in
      let seg = min len (min (seg_of a) (seg_of b)) in
      let scratch_of = function
        | Arr _ -> [||]
        | Const c -> Array.make seg c.v
        | Big _ -> Array.make seg 0
      in
      let sa = scratch_of a and sb = scratch_of b in
      let view t scratch p l =
        match t with
        | Arr x -> (x, p)
        | Const _ -> (scratch, 0)
        | Big _ ->
          blit t ~pos:p scratch ~dst_pos:0 ~len:l;
          (scratch, 0)
      in
      let p = ref pos in
      let stop = pos + len in
      while !p < stop do
        let l = min seg (stop - !p) in
        let abuf, aoff = view a sa !p l in
        let bbuf, boff = view b sb !p l in
        f !p abuf aoff bbuf boff l;
        p := !p + l
      done

let iter_seg2 a b ~f = iter_seg2_range a b ~pos:0 ~len:(length a) ~f

let iteri t ~f =
  iter_seg t ~f:(fun pos buf off len ->
      for k = 0 to len - 1 do
        f (pos + k) (Array.unsafe_get buf (off + k))
      done)

let is_sorted t =
  let sorted = ref true in
  let prev = ref min_int in
  iter_seg t ~f:(fun _ buf off len ->
      if !sorted then begin
        let p = ref !prev in
        (try
           for k = off to off + len - 1 do
             let v = Array.unsafe_get buf k in
             if v < !p then raise Exit;
             p := v
           done
         with Exit -> sorted := false);
        prev := !p
      end);
  !sorted

let min_max t =
  if length t = 0 then invalid_arg "Int_col.min_max: empty column";
  let lo = ref max_int and hi = ref min_int in
  iter_seg t ~f:(fun _ buf off len ->
      for k = off to off + len - 1 do
        let v = Array.unsafe_get buf k in
        if v < !lo then lo := v;
        if v > !hi then hi := v
      done);
  (!lo, !hi)

(* [hi - lo] wraps negative exactly when the true difference exceeds
   [max_int]; the [+ 1] then overflows only at [max_int] itself. *)
let range lo hi =
  if hi < lo then Some 0
  else
    let d = hi - lo in
    if d < 0 || d = max_int then None else Some (d + 1)

let equal a b =
  length a = length b
  &&
  match (a, b) with
  | Arr x, Arr y -> x = y
  | Const x, Const y -> x.len = 0 || x.v = y.v
  | _ ->
    let n = length a in
    let rec go i = i >= n || (get a i = get b i && go (i + 1)) in
    go 0
