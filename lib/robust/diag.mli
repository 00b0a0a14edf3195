(** Typed diagnostics: the one error currency of the whole generator.

    Every user-facing failure carries a stable error [code], a [severity], the
    [subsystem] that raised it, an optional source [span] (for language and
    technology files), an optional remediation [hint] and a structured string
    [payload].  Raise sites use {!fail} / {!failf}; process boundaries catch
    {!Fail} (or call {!guard}) and render with {!pp} or {!to_json}.

    [Env.Rejected] is {e not} a diagnostic: it is the backtracking control
    flow of the variant engine and must keep flowing through [CHOOSE]. *)

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
(** 1-based line and column; [col = 0] means "column unknown". *)

type t = {
  code : string;  (** stable dotted identifier, e.g. ["lang.parse.expected"] *)
  severity : severity;
  subsystem : subsystem;
  message : string;
  span : span option;
  hint : string option;
  payload : (string * string) list;
}

exception Fail of t

val severity_to_string : severity -> string
val severity_of_string : string -> severity option
val subsystem_to_string : subsystem -> string
val subsystem_of_string : string -> subsystem option

val span : ?file:string -> ?col:int -> int -> span
(** [span ?file ?col line] builds a source span. *)

val v :
  ?severity:severity ->
  ?span:span ->
  ?hint:string ->
  ?payload:(string * string) list ->
  subsystem ->
  code:string ->
  string ->
  t
(** Build a diagnostic value (default severity [Error]). *)

val fail :
  ?span:span ->
  ?hint:string ->
  ?payload:(string * string) list ->
  subsystem ->
  code:string ->
  string ->
  'a
(** Raise {!Fail} with an [Error]-severity diagnostic. *)

val failf :
  ?span:span ->
  ?hint:string ->
  ?payload:(string * string) list ->
  subsystem ->
  code:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Like {!fail} with a format string for the message. *)

val line_of : t -> int
(** Line of the span, or 0 when the diagnostic has no span. *)

val col_of : t -> int
(** Column of the span, or 0 when unknown. *)

val equal : t -> t -> bool
val pp_span : Format.formatter -> span -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val guard : ?convert:(exn -> t option) -> (unit -> 'a) -> ('a, t) Stdlib.result
(** [guard f] runs [f] and catches {!Fail} as [Error d].  [?convert] maps
    other exceptions to diagnostics; exceptions it declines (and asynchronous
    ones like [Out_of_memory]) are re-raised with their backtrace. *)

val to_json : t -> string
(** Single-line JSON object for one diagnostic. *)

val list_to_json : ?degraded:bool -> t list -> string
(** Report document: [{"version":1,"degraded":bool,"diagnostics":[...]}]. *)

val of_json : string -> (t, string) Stdlib.result
val list_of_json : string -> (bool * t list, string) Stdlib.result
(** Parse a report document back; returns [(degraded, diagnostics)]. *)

(** {1 Generic JSON values}

    The project's one JSON codec ({!Amg_json.Json}), re-exported here for
    the report document and the serving wire protocol ({!Wire}). *)
module Json = Amg_json.Json

val to_value : t -> Json.t
(** The diagnostic as a JSON value;
    [Json.to_string (to_value d) = to_json d]. *)

val of_value : Json.t -> (t, string) Stdlib.result
