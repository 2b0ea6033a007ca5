(** Recursive-descent parser for the OQL subset.

    Grammar:
    {v
    query    ::= SELECT expr FROM binding (, binding)* [WHERE pred]
    binding  ::= ident IN source
    source   ::= ident | ident . ident
    pred     ::= atom (AND atom)*
    atom     ::= expr cmp expr | ( pred )
    expr     ::= literal | ident [. ident]
               | [ field (, field)* ]        -- tuple constructor
    select   ::= expr | agg ( expr )         -- agg: count sum avg min max
    field    ::= ident : expr | ident . ident  -- shorthand names the attr
    v} *)

exception Parse_error of string

(** [parse s] — raises {!Parse_error} (or {!Oql_lexer.Lex_error}) on bad
    input. *)
val parse : string -> Oql_ast.query

