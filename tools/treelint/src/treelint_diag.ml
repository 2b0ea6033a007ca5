(* Diagnostics: what a rule found, where, and what became of it.

   A diagnostic's fingerprint — "RULE Module offender" — deliberately
   excludes source locations so that allowlist and baseline entries survive
   unrelated edits to the flagged file. *)

type status =
  | Violation
  | Allowlisted of string  (* the configured reason *)
  | Baselined

type severity = Error | Warning | Note

type t = {
  rule : string;     (* "R1" .. "R10" *)
  file : string;     (* workspace-relative source path *)
  line : int;
  col : int;
  modname : string;  (* unprefixed module name, e.g. "Exec" *)
  offender : string; (* normalized reference, e.g. "Disk.load_page" or "=@list" *)
  message : string;
  severity : severity;
  trace : (string * int * int * string) list;
      (* dataflow steps (file, line, col, note), acquire-to-leak order;
         empty for occurrence rules *)
  mutable status : status;
}

let make ?(severity = Error) ?(trace = []) ~rule ~loc ~modname ~offender
    ~message () =
  let pos = loc.Location.loc_start in
  {
    rule;
    file = pos.Lexing.pos_fname;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    modname;
    offender;
    message;
    severity;
    trace;
    status = Violation;
  }

let fingerprint d = Printf.sprintf "%s %s %s" d.rule d.modname d.offender

(* Allowlist keys may be module-wide ("R5 Btree") or member-exact
   ("R5 Btree Array.unsafe_get"). *)
let allow_keys d =
  [ Printf.sprintf "%s %s" d.rule d.modname; fingerprint d ]

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.offender b.offender

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "note" -> Some Note
  | _ -> None

let pp ppf d =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" d.file d.line d.col d.rule d.message

let pp_trace ppf d =
  List.iter
    (fun (f, l, c, note) ->
      Format.fprintf ppf "    %s:%d:%d: %s@." f l c note)
    d.trace

let status_string = function
  | Violation -> "violation"
  | Allowlisted _ -> "allowlisted"
  | Baselined -> "baselined"

(* --- machine-readable report --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let trace_to_json trace =
  let step (f, l, c, note) =
    Printf.sprintf
      "{\"file\": \"%s\", \"line\": %d, \"col\": %d, \"note\": \"%s\"}"
      (json_escape f) l c (json_escape note)
  in
  "[" ^ String.concat ", " (List.map step trace) ^ "]"

let to_json d =
  let reason =
    match d.status with
    | Allowlisted r -> Printf.sprintf ", \"reason\": \"%s\"" (json_escape r)
    | _ -> ""
  in
  let trace =
    match d.trace with
    | [] -> ""
    | t -> Printf.sprintf ", \"trace\": %s" (trace_to_json t)
  in
  Printf.sprintf
    "{\"rule\": \"%s\", \"file\": \"%s\", \"line\": %d, \"col\": %d, \
     \"module\": \"%s\", \"offender\": \"%s\", \"message\": \"%s\", \
     \"severity\": \"%s\", \"status\": \"%s\"%s%s}"
    d.rule (json_escape d.file) d.line d.col (json_escape d.modname)
    (json_escape d.offender) (json_escape d.message)
    (severity_string d.severity) (status_string d.status) reason trace

let report_to_json diags =
  let items = List.map (fun d -> "  " ^ to_json d) diags in
  "[\n" ^ String.concat ",\n" items ^ "\n]\n"
