type token =
  | SELECT
  | FROM
  | WHERE
  | IN
  | AND
  | NIL
  | TRUE
  | FALSE
  | IDENT of string
  | INT of int
  | STRING of string
  | CHAR of char
  | COMMA
  | DOT
  | COLON
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | LT
  | LE
  | GT
  | GE
  | EQ
  | NE
  | EOF

exception Lex_error of string

let keyword = function
  | "select" -> Some SELECT
  | "from" -> Some FROM
  | "where" -> Some WHERE
  | "in" -> Some IN
  | "and" -> Some AND
  | "nil" -> Some NIL
  | "true" -> Some TRUE
  | "false" -> Some FALSE
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize s =
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then List.rev (EOF :: acc)
    else
      let c = s.[pos] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then go (pos + 1) acc
      else if is_ident_start c then begin
        let stop = ref pos in
        while !stop < n && is_ident s.[!stop] do
          incr stop
        done;
        let word = String.sub s pos (!stop - pos) in
        let tok =
          match keyword (String.lowercase_ascii word) with
          | Some t -> t
          | None -> IDENT word
        in
        go !stop (tok :: acc)
      end
      else if is_digit c || (c = '-' && pos + 1 < n && is_digit s.[pos + 1]) then begin
        let stop = ref (pos + 1) in
        while !stop < n && is_digit s.[!stop] do
          incr stop
        done;
        let digits = String.sub s pos (!stop - pos) in
        (* [Failure], not [int_of_string_opt]: a literal that fits allocates
           no option. *)
        let n =
          try int_of_string digits
          with Failure _ ->
            raise (Lex_error ("integer literal out of range: " ^ digits))
        in
        go !stop (INT n :: acc)
      end
      else if c = '"' then begin
        let stop = ref (pos + 1) in
        while !stop < n && s.[!stop] <> '"' do
          incr stop
        done;
        if !stop >= n then raise (Lex_error "unterminated string literal");
        go (!stop + 1) (STRING (String.sub s (pos + 1) (!stop - pos - 1)) :: acc)
      end
      else if c = '\'' then begin
        if pos + 2 >= n || s.[pos + 2] <> '\'' then
          raise (Lex_error "malformed char literal");
        go (pos + 3) (CHAR s.[pos + 1] :: acc)
      end
      else
        let two = if pos + 1 < n then String.sub s pos 2 else "" in
        match two with
        | "<=" -> go (pos + 2) (LE :: acc)
        | ">=" -> go (pos + 2) (GE :: acc)
        | "<>" -> go (pos + 2) (NE :: acc)
        | "!=" -> go (pos + 2) (NE :: acc)
        | _ -> (
            match c with
            | ',' -> go (pos + 1) (COMMA :: acc)
            | '.' -> go (pos + 1) (DOT :: acc)
            | ':' -> go (pos + 1) (COLON :: acc)
            | '[' -> go (pos + 1) (LBRACKET :: acc)
            | ']' -> go (pos + 1) (RBRACKET :: acc)
            | '(' -> go (pos + 1) (LPAREN :: acc)
            | ')' -> go (pos + 1) (RPAREN :: acc)
            | '<' -> go (pos + 1) (LT :: acc)
            | '>' -> go (pos + 1) (GT :: acc)
            | '=' -> go (pos + 1) (EQ :: acc)
            | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c)))
  in
  go 0 []

let equal a b =
  match (a, b) with
  | IDENT x, IDENT y | STRING x, STRING y -> String.equal x y
  | INT x, INT y -> Int.equal x y
  | CHAR x, CHAR y -> Char.equal x y
  | _ ->
      (* constant constructors are immediates, so physical equality is tag
         equality; mixed payload constructors fall through to [false] *)
      a == b

let pp_token ppf tok =
  Format.pp_print_string ppf
    (match tok with
    | SELECT -> "select"
    | FROM -> "from"
    | WHERE -> "where"
    | IN -> "in"
    | AND -> "and"
    | NIL -> "nil"
    | TRUE -> "true"
    | FALSE -> "false"
    | IDENT s -> s
    | INT i -> string_of_int i
    | STRING s -> Printf.sprintf "%S" s
    | CHAR c -> Printf.sprintf "'%c'" c
    | COMMA -> ","
    | DOT -> "."
    | COLON -> ":"
    | LBRACKET -> "["
    | RBRACKET -> "]"
    | LPAREN -> "("
    | RPAREN -> ")"
    | LT -> "<"
    | LE -> "<="
    | GT -> ">"
    | GE -> ">="
    | EQ -> "="
    | NE -> "<>"
    | EOF -> "<eof>")
