open Oql_ast

exception Parse_error of string

type state = { mutable toks : Oql_lexer.token list }

let peek st = match st.toks with [] -> Oql_lexer.EOF | t :: _ -> t

let peek2 st =
  match st.toks with _ :: t :: _ -> t | _ -> Oql_lexer.EOF

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let fail_at st msg =
  raise
    (Parse_error
       (Format.asprintf "%s (at %a)" msg Oql_lexer.pp_token (peek st)))

let expect st tok msg =
  if Oql_lexer.equal (peek st) tok then advance st else fail_at st msg

let ident st =
  match peek st with
  | Oql_lexer.IDENT name ->
      advance st;
      name
  | _ -> fail_at st "expected identifier"

(* literal | ident[.ident] | [ fields ] *)
let rec parse_expr st =
  match peek st with
  | Oql_lexer.INT i ->
      advance st;
      Const (L_int i)
  | Oql_lexer.STRING s ->
      advance st;
      Const (L_string s)
  | Oql_lexer.CHAR c ->
      advance st;
      Const (L_char c)
  | Oql_lexer.TRUE ->
      advance st;
      Const (L_bool true)
  | Oql_lexer.FALSE ->
      advance st;
      Const (L_bool false)
  | Oql_lexer.NIL ->
      advance st;
      Const L_nil
  | Oql_lexer.IDENT _ -> begin
      let v = ident st in
      match peek st with
      | Oql_lexer.DOT ->
          advance st;
          Path (v, ident st)
      | _ -> Var v
    end
  | Oql_lexer.LBRACKET ->
      advance st;
      let rec fields acc =
        let fld =
          match peek st with
          | Oql_lexer.IDENT _ -> begin
              let name = ident st in
              match peek st with
              | Oql_lexer.COLON ->
                  advance st;
                  (name, parse_expr st)
              | Oql_lexer.DOT ->
                  (* shorthand: p.name contributes a field called "name" *)
                  advance st;
                  let attr = ident st in
                  (attr, Path (name, attr))
              | _ -> (name, Var name)
            end
          | _ -> fail_at st "expected tuple field"
        in
        let acc = fld :: acc in
        match peek st with
        | Oql_lexer.COMMA ->
            advance st;
            fields acc
        | Oql_lexer.RBRACKET ->
            advance st;
            List.rev acc
        | _ -> fail_at st "expected ',' or ']'"
      in
      Mk_tuple (fields [])
  | _ -> fail_at st "expected expression"

let parse_cmp st =
  let cmp =
    match peek st with
    | Oql_lexer.LT -> Lt
    | Oql_lexer.LE -> Le
    | Oql_lexer.GT -> Gt
    | Oql_lexer.GE -> Ge
    | Oql_lexer.EQ -> Eq
    | Oql_lexer.NE -> Ne
    | _ -> fail_at st "expected comparison operator"
  in
  advance st;
  cmp

let rec parse_pred_atoms st =
  let atom =
    match peek st with
    | Oql_lexer.LPAREN ->
        advance st;
        let p = parse_pred_atoms st in
        expect st Oql_lexer.RPAREN "expected ')'";
        p
    | Oql_lexer.TRUE ->
        advance st;
        True
    | _ ->
        let lhs = parse_expr st in
        let cmp = parse_cmp st in
        let rhs = parse_expr st in
        Cmp (lhs, cmp, rhs)
  in
  match peek st with
  | Oql_lexer.AND ->
      advance st;
      And (atom, parse_pred_atoms st)
  | _ -> atom

let agg_of_name name =
  match String.lowercase_ascii name with
  | "count" -> Some Count
  | "sum" -> Some Sum
  | "avg" -> Some Avg
  | "min" -> Some Min
  | "max" -> Some Max
  | _ -> None

let parse_projection st =
  match peek st with
  | Oql_lexer.IDENT name when Oql_lexer.equal (peek2 st) Oql_lexer.LPAREN -> (
      match agg_of_name name with
      | Some agg ->
          advance st;
          advance st;
          let e = parse_expr st in
          expect st Oql_lexer.RPAREN "expected ')' after aggregate";
          Aggregate (agg, e)
      | None -> fail_at st "unknown aggregate function")
  | _ -> Rows (parse_expr st)

let parse_binding st =
  let var = ident st in
  expect st Oql_lexer.IN "expected 'in'";
  let base = ident st in
  match peek st with
  | Oql_lexer.DOT ->
      advance st;
      { var; source = Sub_collection (base, ident st) }
  | _ -> { var; source = Extent base }

let parse_query st =
  expect st Oql_lexer.SELECT "expected 'select'";
  let select = parse_projection st in
  expect st Oql_lexer.FROM "expected 'from'";
  let rec bindings acc =
    let acc = parse_binding st :: acc in
    match peek st with
    | Oql_lexer.COMMA ->
        advance st;
        bindings acc
    | _ -> List.rev acc
  in
  let from = bindings [] in
  let where =
    match peek st with
    | Oql_lexer.WHERE ->
        advance st;
        parse_pred_atoms st
    | _ -> True
  in
  expect st Oql_lexer.EOF "trailing input";
  { select; from; where }

let parse s = parse_query { toks = Oql_lexer.tokenize s }
