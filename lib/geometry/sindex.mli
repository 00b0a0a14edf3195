(** Spatial index over integer-keyed rectangles.

    A grid index for the candidate queries of the compactor, the
    design-rule checker and the extractor: rectangles are grouped by size
    class (their extent on each axis, in powers of four of the cell), each
    class keeps a two-dimensional grid in which a rectangle covers at most
    two cells per axis, and a window query visits only the cells the
    window covers, then filters precisely.  Long rails and wells live in
    coarse grids, so they neither blow up insertion nor get scanned by
    every query.

    All operations are incremental: insert, remove and update touch only
    the cells of the affected rectangle, and translating the whole index is
    O(1) (a coordinate offset, not a re-binning).  Keys are arbitrary
    integers (shape ids, piece indices); the index never interprets them. *)

type t

val create : ?cell:int -> unit -> t
(** Fresh empty index.  [cell] is the finest cell pitch in the coordinate
    unit, rounded up to a power of two (default 4000, i.e. 4.096 µm for
    nanometre layouts). *)

val copy : t -> t
(** Independent copy; mutating either index never affects the other. *)

val cardinal : t -> int

val mem : t -> int -> bool

val find : t -> int -> Rect.t option
(** The rectangle currently stored under the key. *)

val insert : t -> int -> Rect.t -> unit
(** Enter (or re-enter) a rectangle under the key; an existing entry with
    the same key is replaced. *)

val remove : t -> int -> unit
(** Remove the key; absent keys are ignored. *)

val rekey : t -> int -> int -> unit
(** [rekey t key key'] files [key]'s rectangle under [key'] instead,
    replacing any entry [key'] had.  It rewrites only the few cells that
    rectangle covers and does not re-derive its placement; an absent [key]
    is ignored. *)

val translate_all : t -> dx:int -> dy:int -> unit
(** Shift every stored rectangle.  O(1): maintained as an offset. *)

val query : t -> Rect.t -> margin:int -> int list
(** Keys of every rectangle within [margin] of the window, i.e. whose
    closed rectangle intersects the window inflated by [margin] on all
    sides.  Ascending key order; no key appears twice. *)

val iter : t -> (int -> Rect.t -> unit) -> unit

val bbox : t -> Rect.t option
(** Hull of every stored rectangle, or [None] when empty.  O(n). *)
