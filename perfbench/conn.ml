(* One client connection to a served [Dqo_serve.Server]: a pipe pair
   into [Dqo_serve.Wire.serve], which runs on a thread of its own, as
   [dqo serve] runs on stdin/stdout. *)

type t = { to_server : out_channel; from_server : in_channel; serving : Thread.t }

exception Protocol of string

let connect srv =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
  let serving =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic; close_out_noerr oc)
          (fun () -> Dqo_serve.Wire.serve srv ic oc))
      ()
  in
  { to_server = Unix.out_channel_of_descr req_w;
    from_server = Unix.in_channel_of_descr resp_r;
    serving }

let send c line =
  output_string c.to_server line;
  output_char c.to_server '\n';
  flush c.to_server

let line c =
  match input_line c.from_server with
  | l -> l
  | exception End_of_file -> raise (Protocol "connection closed")

(* A one-line command; replies that do not start with [ok <word>] raise. *)
let command c ~expect cmd =
  send c cmd;
  let reply = line c in
  let prefix = "ok " ^ expect in
  if String.length reply >= String.length prefix
     && String.sub reply 0 (String.length prefix) = prefix
  then String.trim (String.sub reply (String.length prefix) (String.length reply - String.length prefix))
  else raise (Protocol (Printf.sprintf "%s -> %s" cmd reply))

let open_session c = command c ~expect:"session" "open"
let prepare c ~session sql = command c ~expect:"stmt" (Printf.sprintf "prepare %s %s" session sql)

(* [exec]: the header line and, when [keep], the row lines; rows are
   read either way, up to [end].  An [error] reply is [Error]. *)
let exec c ~session ~stmt ~keep =
  send c (Printf.sprintf "exec %s %s" session stmt);
  let header = line c in
  if String.length header < 7 || String.sub header 0 7 <> "result " then Error header
  else begin
    let rows = ref [] in
    let rec read () =
      match line c with
      | "end" -> ()
      | l ->
        if keep then rows := l :: !rows;
        read ()
    in
    read ();
    Ok (header, List.rev !rows)
  end

let close c =
  ignore (command c ~expect:"bye" "quit");
  Thread.join c.serving;
  close_out_noerr c.to_server;
  close_in_noerr c.from_server
