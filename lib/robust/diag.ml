type severity = Error | Warning | Info

type subsystem =
  | Lang
  | Tech
  | Geometry
  | Layout
  | Compact
  | Route
  | Optimize
  | Parallel
  | Drc
  | Extract
  | Synth
  | Cli
  | Store
  | Internal

type span = { file : string option; line : int; col : int }

type t = {
  code : string;
  severity : severity;
  subsystem : subsystem;
  message : string;
  span : span option;
  hint : string option;
  payload : (string * string) list;
}

exception Fail of t

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let subsystems =
  [
    (Lang, "lang");
    (Tech, "tech");
    (Geometry, "geometry");
    (Layout, "layout");
    (Compact, "compact");
    (Route, "route");
    (Optimize, "optimize");
    (Parallel, "parallel");
    (Drc, "drc");
    (Extract, "extract");
    (Synth, "synth");
    (Cli, "cli");
    (Store, "store");
    (Internal, "internal");
  ]

let subsystem_to_string s = List.assoc s subsystems

let subsystem_of_string name =
  List.find_map (fun (s, n) -> if String.equal n name then Some s else None) subsystems

let span ?file ?(col = 0) line = { file; line; col }

let v ?(severity = Error) ?span ?hint ?(payload = []) subsystem ~code message =
  { code; severity; subsystem; message; span; hint; payload }

let fail ?span ?hint ?payload subsystem ~code message =
  raise (Fail (v ?span ?hint ?payload subsystem ~code message))

let failf ?span ?hint ?payload subsystem ~code fmt =
  Fmt.kstr (fun message -> fail ?span ?hint ?payload subsystem ~code message) fmt

let line_of d = match d.span with Some s -> s.line | None -> 0
let col_of d = match d.span with Some s -> s.col | None -> 0

let span_equal a b =
  Option.equal String.equal a.file b.file && a.line = b.line && a.col = b.col

let equal a b =
  String.equal a.code b.code
  && a.severity = b.severity
  && a.subsystem = b.subsystem
  && String.equal a.message b.message
  && Option.equal span_equal a.span b.span
  && Option.equal String.equal a.hint b.hint
  && List.equal
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       a.payload b.payload

let pp_span ppf s =
  (match s.file with Some f -> Fmt.pf ppf "%s:" f | None -> ());
  Fmt.pf ppf "%d" s.line;
  if s.col > 0 then Fmt.pf ppf ":%d" s.col

let pp ppf d =
  Fmt.pf ppf "%s[%s:%s]" (severity_to_string d.severity)
    (subsystem_to_string d.subsystem)
    d.code;
  (match d.span with Some s -> Fmt.pf ppf " %a" pp_span s | None -> ());
  Fmt.pf ppf ": %s" d.message;
  (match d.hint with Some h -> Fmt.pf ppf "@ (hint: %s)" h | None -> ());
  match d.payload with
  | [] -> ()
  | kvs ->
      Fmt.pf ppf "@ {%a}"
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%s" k v))
        kvs

let to_string d = Fmt.str "%a" pp d

let fatal_exn = function
  | Out_of_memory | Sys.Break -> true
  | _ -> false

let guard ?convert f =
  match f () with
  | x -> Stdlib.Ok x
  | exception Fail d -> Stdlib.Error d
  | exception e when not (fatal_exn e) -> (
      let bt = Printexc.get_raw_backtrace () in
      match Option.bind convert (fun c -> c e) with
      | Some d -> Stdlib.Error d
      | None -> Printexc.raise_with_backtrace e bt)

(* --- JSON ------------------------------------------------------------ *)

module Json = Amg_json.Json

let to_value d =
  let open Json in
  let opt_str = function None -> Jnull | Some s -> Jstr s in
  Jobj
    [
      ("code", Jstr d.code);
      ("severity", Jstr (severity_to_string d.severity));
      ("subsystem", Jstr (subsystem_to_string d.subsystem));
      ("message", Jstr d.message);
      ( "span",
        match d.span with
        | None -> Jnull
        | Some s ->
            Jobj
              [
                ("file", opt_str s.file);
                ("line", Jnum (float_of_int s.line));
                ("col", Jnum (float_of_int s.col));
              ] );
      ("hint", opt_str d.hint);
      ("payload", Jobj (List.map (fun (k, v) -> (k, Jstr v)) d.payload));
    ]

let to_json d = Json.to_string (to_value d)

let list_to_json ?(degraded = false) ds =
  Json.to_string
    (Json.Jobj
       [
         ("version", Json.Jnum 1.);
         ("degraded", Json.Jbool degraded);
         ("diagnostics", Json.Jarr (List.map to_value ds));
       ])

let of_value v =
  let open Json in
  let ( let* ) o f = match o with Some x -> f x | None -> Stdlib.Error "malformed diagnostic" in
  let* code = Option.bind (member "code" v) str in
  let* severity =
    Option.bind (Option.bind (member "severity" v) str) severity_of_string
  in
  let* subsystem =
    Option.bind (Option.bind (member "subsystem" v) str) subsystem_of_string
  in
  let* message = Option.bind (member "message" v) str in
  (* An absent line or column reads as 0; a present one must be an
     integer. *)
  let coord sp name = match member name sp with None -> Some 0 | Some n -> int n in
  let* span =
    match member "span" v with
    | Some (Jobj _ as sp) ->
        let file = Option.bind (member "file" sp) str in
        Option.bind (coord sp "line") (fun line ->
            Option.map (fun col -> Some { file; line; col }) (coord sp "col"))
    | _ -> Some None
  in
  let hint = Option.bind (member "hint" v) str in
  let payload =
    match member "payload" v with
    | Some (Jobj kvs) ->
        List.filter_map
          (fun (k, pv) -> Option.map (fun s -> (k, s)) (str pv))
          kvs
    | _ -> []
  in
  Stdlib.Ok { code; severity; subsystem; message; span; hint; payload }

let of_json s = Result.bind (Json.of_string s) of_value

let list_of_json s =
  match Json.of_string s with
  | Stdlib.Error _ as e -> e
  | Stdlib.Ok v -> (
      let degraded =
        match Json.member "degraded" v with Some (Json.Jbool b) -> b | _ -> false
      in
      match Json.member "diagnostics" v with
      | Some (Json.Jarr items) ->
          let rec go acc = function
            | [] -> Stdlib.Ok (degraded, List.rev acc)
            | item :: rest -> (
                match of_value item with
                | Stdlib.Ok d -> go (d :: acc) rest
                | Stdlib.Error msg -> Stdlib.Error msg)
          in
          go [] items
      | _ -> Stdlib.Error "missing diagnostics array")
