type t =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of t list
  | Jobj of (string * t) list

exception Bad of string

(* Outside input (wire frames, sweep specs, trace files) reaches this
   parser, and each nesting level costs stack; no document the generator
   writes nests deeper than a handful of levels. *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
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
    | _ -> err (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then (
      pos := !pos + l;
      v)
    else err (Printf.sprintf "expected %s" lit)
  in
  (* Four hex digits of a \u escape. *)
  let hex4 () =
    let hex = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if String.length hex <> 4 || not (String.for_all is_hex hex) then
      err "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ hex)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
            if !pos >= n then err "unterminated escape"
            else
              let e = s.[!pos] in
              advance ();
              match e with
              | '"' | '\\' | '/' ->
                  Buffer.add_char b e;
                  go ()
              | 'n' ->
                  Buffer.add_char b '\n';
                  go ()
              | 'r' ->
                  Buffer.add_char b '\r';
                  go ()
              | 't' ->
                  Buffer.add_char b '\t';
                  go ()
              | 'b' ->
                  Buffer.add_char b '\b';
                  go ()
              | 'f' ->
                  Buffer.add_char b '\012';
                  go ()
              | 'u' ->
                  (* A \u escape names a UTF-16 code unit: a high surrogate
                     must be followed by an escaped low one, and the pair
                     is one code point; either half alone is refused. *)
                  let start = !pos - 2 in
                  let unpaired half =
                    pos := start;
                    err ("unpaired " ^ half ^ " surrogate")
                  in
                  let hi = hex4 () in
                  let code =
                    if hi >= 0xDC00 && hi <= 0xDFFF then unpaired "low"
                    else if hi < 0xD800 || hi > 0xDBFF then hi
                    else if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                    then begin
                      pos := !pos + 2;
                      let lo = hex4 () in
                      if lo < 0xDC00 || lo > 0xDFFF then unpaired "high";
                      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                    end
                    else unpaired "high"
                  in
                  Buffer.add_utf_8_uchar b (Uchar.of_int code);
                  go ()
              | _ -> err "bad escape")
        | c ->
            Buffer.add_char b c;
            go ()
    in
    go ()
  in
  (* The RFC 8259 grammar: an optional minus, then 0 or a digit run not
     starting with 0, then optionally a dot and one or more digits, then
     optionally e or E, an optional sign and one or more digits.  Nothing
     else ([+1], [.5], [01], [1.], [1e]) is a number. *)
  let parse_number () =
    let start = !pos in
    let digit () = match peek () with Some '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (digit ()) then err "bad number";
      while digit () do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    (match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> err (if !pos = start then "expected number" else "bad number"));
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    float_of_string (String.sub s start (!pos - start))
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | Some ('{' | '[') when depth >= max_depth ->
        err (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Jobj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> err "expected ',' or '}'"
          in
          Jobj (members [])
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          Jarr [])
        else
          let rec elems acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> err "expected ',' or ']'"
          in
          Jarr (elems [])
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
    | None -> err "unexpected end of input"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then err "trailing garbage";
  v

let of_string s = match parse s with v -> Ok v | exception Bad msg -> Error msg

let add_string b s =
  Buffer.add_char b '"';
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
  Buffer.add_char b '"'

(* Shortest image that parses back to the same float.  The serving
   protocol requires byte-deterministic responses, so the image must
   depend only on the value.  JSON has no non-finite numbers, so nan
   and the infinities encode as [null] — never as the unparsable
   nan/inf images printf would produce. *)
let float_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec to_buffer b = function
  | Jnull -> Buffer.add_string b "null"
  | Jbool true -> Buffer.add_string b "true"
  | Jbool false -> Buffer.add_string b "false"
  | Jnum f -> Buffer.add_string b (float_to_string f)
  | Jstr s -> add_string b s
  | Jarr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b v)
        items;
      Buffer.add_char b ']'
  | Jobj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let member name = function Jobj kvs -> List.assoc_opt name kvs | _ -> None
let str = function Jstr s -> Some s | _ -> None
let num = function Jnum f -> Some f | _ -> None
(* Integral and well inside the native int range, or [None]: never a
   truncation. *)
let int = function
  | Jnum f when Float.is_integer f && Float.abs f < 0x1p53 -> Some (int_of_float f)
  | _ -> None
let bool = function Jbool b -> Some b | _ -> None
