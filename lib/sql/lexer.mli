(** Hand-written SQL lexer. *)

exception Error of string
(** Raised on an unexpected character, with a position message. *)

val tokenize : string -> Token.t list
(** [tokenize s] lexes [s] into tokens ending with {!Token.Eof}.
    Identifiers may be qualified ([r.a]); keywords are case-insensitive.
    An integer literal may start with a [-] directly followed by a digit
    ([-5], [-4611686018427387904] = [min_int]); a [-] followed by a space
    ([- 5]) is not a literal and is a lexical error, as there is no
    arithmetic.
    @raise Error on lexical errors, including integer literals outside
    [\[min_int, max_int\]]. *)
