(* In-memory spans for the traced run: name, start, end, parent span and
   request id, plus numeric attributes.  Spans sit only around calls
   into public entry points from this benchmark's own code; they are
   written out as JSON lines when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* 0 for a root *)
  req : int;
  start_s : float;
  stop_s : float;
  attrs : (string * float) list;
}

type t = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let create () = { spans = []; next = 0; lock = Mutex.create () }

let fresh t =
  Mutex.protect t.lock (fun () ->
      t.next <- t.next + 1;
      t.next)

(* Time [f], record it under [name], and return its result with the new
   span's id (for children).  [attrs] reads the result. *)
let span t ?(parent = 0) ~req ?(attrs = fun _ -> []) name f =
  let id = fresh t in
  let start_s = Unix.gettimeofday () in
  let r = f id in
  let stop_s = Unix.gettimeofday () in
  let s = { id; name; parent; req; start_s; stop_s; attrs = attrs r } in
  Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans);
  r

let ms s = (s.stop_s -. s.start_s) *. 1000.0
let named t name = List.filter (fun s -> s.name = name) t.spans

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_s\":%.6f,\"end_s\":%.6f%s}\n"
        s.id s.name s.parent s.req s.start_s s.stop_s
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ",%S:%.17g" k v) s.attrs)))
    (List.rev t.spans);
  close_out oc
