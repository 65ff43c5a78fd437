type t = Ints of Int_col.t | Floats of float array | Strings of string array

let of_ints a = Ints (Int_col.of_array a)
let of_int_col c = Ints c

let length = function
  | Ints c -> Int_col.length c
  | Floats a -> Array.length a
  | Strings a -> Array.length a

let ty = function
  | Ints _ -> Schema.T_int
  | Floats _ -> Schema.T_float
  | Strings _ -> Schema.T_string

let get c i =
  match c with
  | Ints c -> Value.Int (Int_col.get c i)
  | Floats a -> Value.Float a.(i)
  | Strings a -> Value.String a.(i)

let int_col = function
  | Ints c -> c
  | Floats _ | Strings _ -> invalid_arg "Column.int_col: not an int column"

let to_int_array c = Int_col.to_array (int_col c)

(* Bounds-checked gather from a flat array, without a closure per row. *)
let gather a idx =
  let n = Array.length idx in
  let dst = Array.make n 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set dst k a.(Array.unsafe_get idx k)
  done;
  dst

let take c idx =
  match c with
  | Ints c -> (
    match Int_col.as_flat_array c with
    | Some a -> of_ints (gather a idx)
    | None -> of_ints (Array.map (fun i -> Int_col.get c i) idx))
  | Floats a -> Floats (Array.map (fun i -> a.(i)) idx)
  | Strings a -> Strings (Array.map (fun i -> a.(i)) idx)

let sub c ~pos ~len =
  match c with
  | Ints c ->
    let dst = Array.make len 0 in
    Int_col.blit c ~pos dst ~dst_pos:0 ~len;
    of_ints dst
  | Floats a -> Floats (Array.sub a pos len)
  | Strings a -> Strings (Array.sub a pos len)

let of_values ty values =
  let fail () = invalid_arg "Column.of_values: type mismatch" in
  match ty with
  | Schema.T_int ->
    of_ints
      (Array.of_list
         (List.map
            (function Value.Int i -> i | Null | Float _ | String _ -> fail ())
            values))
  | Schema.T_float ->
    Floats
      (Array.of_list
         (List.map
            (function
              | Value.Float f -> f
              | Value.Int i -> Float.of_int i
              | Null | String _ -> fail ())
            values))
  | Schema.T_string ->
    Strings
      (Array.of_list
         (List.map
            (function
              | Value.String s -> s | Null | Int _ | Float _ -> fail ())
            values))

let equal a b =
  match (a, b) with
  | Ints x, Ints y -> Int_col.equal x y
  | Floats x, Floats y -> x = y
  | Strings x, Strings y -> x = y
  | (Ints _ | Floats _ | Strings _), _ -> false
