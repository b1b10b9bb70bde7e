type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec write b ~indent ~level v =
  let nl_sep lvl =
    if indent then "\n" ^ String.make (2 * lvl) ' ' else ""
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape_string s);
      Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (nl_sep (level + 1));
          write b ~indent ~level:(level + 1) item)
        items;
      Buffer.add_string b (nl_sep level);
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (nl_sep (level + 1));
          Buffer.add_char b '"';
          Buffer.add_string b (escape_string k);
          Buffer.add_string b (if indent then "\": " else "\":");
          write b ~indent ~level:(level + 1) item)
        fields;
      Buffer.add_string b (nl_sep level);
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b ~indent:false ~level:0 v;
  Buffer.contents b

let to_string_indent v =
  let b = Buffer.create 256 in
  write b ~indent:true ~level:0 v;
  Buffer.contents b

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None

(* --- parser --- *)

exception Parse_error of int * string

let parse_fail pos msg = raise (Parse_error (pos, msg))

let parse_doc s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> parse_fail !pos (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_fail !pos (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_fail !pos "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then parse_fail !pos "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
                Buffer.add_char b e;
                go ()
            | 'n' -> Buffer.add_char b '\n'; go ()
            | 't' -> Buffer.add_char b '\t'; go ()
            | 'r' -> Buffer.add_char b '\r'; go ()
            | 'b' -> Buffer.add_char b '\b'; go ()
            | 'f' -> Buffer.add_char b '\012'; go ()
            | 'u' ->
                if !pos + 4 > n then parse_fail !pos "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> parse_fail !pos "bad \\u escape"
                in
                pos := !pos + 4;
                (* Encode the code point as UTF-8; surrogate pairs are not
                   recombined (the producers in this repo never emit
                   non-BMP text). *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end;
                go ()
            | _ -> parse_fail (!pos - 1) "unknown escape")
        | c ->
            Buffer.add_char b c;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_int = ref true in
    if peek () = Some '-' then advance ();
    let rec digits () =
      match peek () with
      | Some '0' .. '9' ->
          advance ();
          digits ()
      | _ -> ()
    in
    digits ();
    if peek () = Some '.' then begin
      is_int := false;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_int := false;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_int then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* Out-of-range integer literal: fall back to float. *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> parse_fail start "malformed number")
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_fail start "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_fail !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> parse_fail !pos "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (kv :: acc))
            | _ -> parse_fail !pos "expected ',' or '}'"
          in
          fields []
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_fail !pos (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_fail !pos "trailing garbage after document";
  v

let truncate_input s =
  if String.length s <= 64 then s else String.sub s 0 61 ^ "..."

let parse s =
  match parse_doc s with
  | v -> Ok v
  | exception Parse_error (pos, message) ->
      Error
        (Diag.Parse
           {
             field = "Json.parse";
             input = truncate_input s;
             message = Printf.sprintf "at offset %d: %s" pos message;
           })
