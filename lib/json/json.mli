(** The generator's one JSON codec.

    Every JSON document the project reads or writes goes through this
    module: diagnostics reports, serving wire frames, sweep specs and
    result files, metrics scrapes, and Chrome trace files.  It depends on
    nothing but the standard library, so every other library can use it.

    The writer is deterministic: object fields are emitted in construction
    order and each float prints as the shortest image that parses back to
    the same value, so equal values always serialize to equal bytes. *)

type t =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of t list
  | Jobj of (string * t) list

val max_depth : int
(** Deepest array/object nesting {!of_string} accepts (512). *)

val of_string : string -> (t, string) result
(** Parse one complete JSON document (rejects trailing garbage and nesting
    deeper than {!max_depth}).  Errors name the byte offset.  [\u]
    escapes decode to UTF-8; raw bytes pass through unchanged. *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string literal.  Quote, backslash and
    control bytes are escaped; every other byte, including non-ASCII,
    is copied as is. *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val str : t -> string option
val num : t -> float option
val int : t -> int option
val bool : t -> bool option
