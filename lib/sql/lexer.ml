exception Error of string

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'
let is_digit c = c >= '0' && c <= '9'

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit s.[!i + 1]) then begin
      (* A '-' directly followed by a digit belongs to the literal, so
         [min_int] is a literal too. *)
      let start = !i in
      incr i;
      while !i < n && (is_digit s.[!i] || s.[!i] = '_') do
        incr i
      done;
      let raw = String.sub s start (!i - start) in
      let digits = String.concat "" (String.split_on_char '_' raw) in
      match int_of_string_opt digits with
      | Some v -> emit (Token.Int_lit v)
      | None ->
        raise
          (Error
             (Printf.sprintf "integer literal %s out of range at position %d"
                raw start))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do
        incr i
      done;
      let word = String.sub s start (!i - start) in
      let upper = String.uppercase_ascii word in
      if List.mem upper Token.keywords then emit (Token.Kw upper)
      else emit (Token.Ident word)
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub s !i 2) else None
      in
      match two with
      | Some "<=" ->
        emit Token.Le;
        i := !i + 2
      | Some ">=" ->
        emit Token.Ge;
        i := !i + 2
      | Some "<>" ->
        emit Token.Neq;
        i := !i + 2
      | Some "!=" ->
        emit Token.Neq;
        i := !i + 2
      | Some _ | None -> (
        match c with
        | '*' -> emit Token.Star; incr i
        | ',' -> emit Token.Comma; incr i
        | '(' -> emit Token.Lparen; incr i
        | ')' -> emit Token.Rparen; incr i
        | '=' -> emit Token.Eq; incr i
        | '<' -> emit Token.Lt; incr i
        | '>' -> emit Token.Gt; incr i
        | ';' -> incr i
        | _ ->
          raise
            (Error
               (Printf.sprintf "unexpected character %C at position %d" c !i)))
    end
  done;
  List.rev (Token.Eof :: !tokens)
