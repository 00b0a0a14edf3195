(* Two-dimensional grids, one per size class.  Rectangles are stored in
   local coordinates (world minus a running offset, so translating the
   whole index is an O(1) offset bump).  A rectangle's size class is its
   level on each axis: on level [l] cells are [cell * 4^l] long, and a
   rectangle takes the finest level on which it spans at most two cells.
   Each class has its own grid of (generally oblong) cells, and the
   rectangle is entered into the at most four cells it covers there.  A cut
   lands in the finest grid, a thin vertical strip in a grid of narrow,
   tall cells, a horizontal rail in one of wide, flat cells, and a well in
   a coarse one.

   A query visits, in every grid, only the cells its window covers, so a
   small window scans a handful of neighbours instead of a strip across the
   layout, and removing one cut rewrites only the short list of its own
   cell.  Because every rectangle spans at most two cells per axis, a slab
   query along one axis meets each candidate at most twice, and a
   margin-0 query for a small shape meets only the rails passing through
   its own cells instead of every rail of the layer.

   Each grid groups its cells into square tiles of [tile] x [tile] cells,
   each a small array allocated when it first receives an entry, and a
   dense directory maps tile coordinates to tiles: growing the layout grows
   only the directory (a word per tile) and never re-allocates the cells
   already there.  Queries are clamped to each grid's occupied cells, so a
   window far wider than the layout (the compactor's slab queries) costs
   only the tiles the layout has.  A directory that would outgrow
   [dir_cap] tiles (scattered geometry) sends the rectangle one level up on
   both axes instead, so memory stays proportional to the entries.

   Cell pitches are powers of two, so cell coordinates are shifts.  Cells
   hold immutable (key, rect) lists: the rectangle rides along so the
   query's precise filter runs without a table lookup per candidate, and
   [copy] shares the lists (they are replaced, never mutated), so copying
   an index copies only its arrays. *)

type entry = int * Rect.t

let tile_bits = 2
let tile = 1 lsl tile_bits

(* The grid of one size class: cells are [2^sx] by [2^sy].  Tile (tx, ty)
   is [dir.((ty - ty0) * tw + tx - tx0)], [||] until it holds an entry;
   cell (cx, cy) sits at [(cy mod tile) * tile + cx mod tile] in its tile.
   [bx0 .. by1] is the hull of the cells ever entered. *)
type grid = {
  sx : int;
  sy : int;
  mutable tx0 : int;
  mutable ty0 : int;
  mutable tw : int;
  mutable th : int;
  mutable dir : entry list array array;
  mutable bx0 : int;
  mutable bx1 : int;
  mutable by0 : int;
  mutable by1 : int;
}

type t = {
  bits : int; (* finest cell pitch is [2^bits] *)
  mutable ox : int; (* world x = local x + ox *)
  mutable oy : int;
  rects : (int, Rect.t) Hashtbl.t; (* key -> local rect *)
  mutable grids : grid array; (* in order of first use *)
  mutable bumped : (int * int) list;
      (* key -> grid, for the rare rectangle [dir_cap] sent past its class *)
}

let create ?(cell = 4000) () =
  let rec bits b = if 1 lsl b >= cell then b else bits (b + 1) in
  { bits = bits 0; ox = 0; oy = 0; rects = Hashtbl.create 16; grids = [||]; bumped = [] }

let copy_grid g =
  { g with dir = Array.map (fun c -> if Array.length c = 0 then c else Array.copy c) g.dir }

let copy t = { t with rects = Hashtbl.copy t.rects; grids = Array.map copy_grid t.grids }

let cardinal t = Hashtbl.length t.rects
let mem t key = Hashtbl.mem t.rects key

let find t key =
  Option.map
    (fun r -> Rect.translate r ~dx:t.ox ~dy:t.oy)
    (Hashtbl.find_opt t.rects key)

(* Directory sizes beyond this send a rectangle one level up. *)
let dir_cap t = Int.max 4096 (4 * Hashtbl.length t.rects)

(* The shift of the finest level at or above [s] on which [lo, hi] spans at
   most two cells. *)
let rec axis_shift s lo hi = if (hi asr s) - (lo asr s) <= 1 then s else axis_shift (s + 2) lo hi

(* Index of the grid with cells [2^sx] by [2^sy], created on first use. *)
let grid_index t sx sy =
  let rec find i =
    if i = Array.length t.grids then begin
      let g =
        { sx; sy; tx0 = 0; ty0 = 0; tw = 0; th = 0; dir = [||]; bx0 = 0; bx1 = -1; by0 = 0; by1 = -1 }
      in
      t.grids <- Array.append t.grids [| g |];
      i
    end
    else if t.grids.(i).sx = sx && t.grids.(i).sy = sy then i
    else find (i + 1)
  in
  find 0

(* Grow [g]'s directory to cover tiles [tx0, tx1] x [ty0, ty1], adding a
   quarter of the current extent as slack on each side that had to move;
   [false] (and no change) when that would exceed [cap] tiles. *)
let grow_dir g ~cap tx0 tx1 ty0 ty1 =
  let axis g0 glen lo hi =
    if glen = 0 then (lo, hi - lo + 1)
    else
      let slack = (glen / 4) + 1 in
      let n0 = if lo < g0 then lo - slack else g0 in
      let n1 = if hi >= g0 + glen then hi + 1 + slack else g0 + glen in
      (n0, n1 - n0)
  in
  let nx0, nw = axis g.tx0 g.tw tx0 tx1 and ny0, nh = axis g.ty0 g.th ty0 ty1 in
  nw * nh <= cap
  && begin
       let dir = Array.make (nw * nh) [||] in
       for y = 0 to g.th - 1 do
         Array.blit g.dir (y * g.tw) dir (((y + g.ty0 - ny0) * nw) + g.tx0 - nx0) g.tw
       done;
       g.tx0 <- nx0;
       g.ty0 <- ny0;
       g.tw <- nw;
       g.th <- nh;
       g.dir <- dir;
       true
     end

(* Apply [f cells i] to every cell of [cx0, cx1] x [cy0, cy1] on [g], held
   at [cells.(i)], tile by tile.  The range must lie in the directory;
   [make] allocates missing tiles, otherwise they are skipped. *)
let iter_cells g ~make cx0 cx1 cy0 cy1 f =
  for ty = cy0 asr tile_bits to cy1 asr tile_bits do
    let drow = ((ty - g.ty0) * g.tw) - g.tx0 in
    for tx = cx0 asr tile_bits to cx1 asr tile_bits do
      let cells =
        let c = g.dir.(drow + tx) in
        if Array.length c = 0 && make then begin
          let c = Array.make (tile * tile) [] in
          g.dir.(drow + tx) <- c;
          c
        end
        else c
      in
      if Array.length cells > 0 then
        for cy = Int.max cy0 (ty lsl tile_bits) to Int.min cy1 ((ty lsl tile_bits) + tile - 1) do
          let row = (cy land (tile - 1)) lsl tile_bits in
          for cx = Int.max cx0 (tx lsl tile_bits) to Int.min cx1 ((tx lsl tile_bits) + tile - 1) do
            f cells (row + (cx land (tile - 1)))
          done
        done
    done
  done

(* The grid of [r]'s size class. *)
let class_index t (r : Rect.t) =
  grid_index t (axis_shift t.bits r.Rect.x0 r.Rect.x1) (axis_shift t.bits r.Rect.y0 r.Rect.y1)

(* Enter [entry] into the grid with cells [2^sx] by [2^sy], or a coarser
   one when that grid's directory would outgrow [dir_cap]; returns the
   grid's index. *)
let rec enter t sx sy ((_, r) as entry) =
  let i = grid_index t sx sy in
  let g = t.grids.(i) in
  let cx0 = r.Rect.x0 asr g.sx and cx1 = r.Rect.x1 asr g.sx in
  let cy0 = r.Rect.y0 asr g.sy and cy1 = r.Rect.y1 asr g.sy in
  let tx0 = cx0 asr tile_bits and tx1 = cx1 asr tile_bits in
  let ty0 = cy0 asr tile_bits and ty1 = cy1 asr tile_bits in
  if
    (tx0 >= g.tx0 && tx1 < g.tx0 + g.tw && ty0 >= g.ty0 && ty1 < g.ty0 + g.th)
    || grow_dir g ~cap:(dir_cap t) tx0 tx1 ty0 ty1
  then begin
    if g.bx1 < g.bx0 then begin
      g.bx0 <- cx0;
      g.bx1 <- cx1;
      g.by0 <- cy0;
      g.by1 <- cy1
    end
    else begin
      g.bx0 <- Int.min g.bx0 cx0;
      g.bx1 <- Int.max g.bx1 cx1;
      g.by0 <- Int.min g.by0 cy0;
      g.by1 <- Int.max g.by1 cy1
    end;
    iter_cells g ~make:true cx0 cx1 cy0 cy1 (fun cells i -> cells.(i) <- entry :: cells.(i));
    i
  end
  else enter t (g.sx + 2) (g.sy + 2) entry

(* The grid holding [key]'s entry [r], taken off the bumped list. *)
let take_grid t key r =
  match List.assoc_opt key t.bumped with
  | Some i ->
      t.bumped <- List.remove_assoc key t.bumped;
      i
  | None -> class_index t r

(* A cell list without [key]'s entry, or with it replaced by [entry]:
   keys are unique in a cell, so only the prefix before it is copied. *)
let rec without key = function
  | [] -> []
  | ((k, _) as e) :: rest -> if k = key then rest else e :: without key rest

let rec renamed key entry = function
  | [] -> []
  | ((k, _) as e) :: rest -> if k = key then entry :: rest else e :: renamed key entry rest

(* Rewrite the cells of entry [r] in grid [i]. *)
let update_cells t i (r : Rect.t) f =
  let g = t.grids.(i) in
  iter_cells g ~make:false (r.Rect.x0 asr g.sx) (r.Rect.x1 asr g.sx)
    (r.Rect.y0 asr g.sy) (r.Rect.y1 asr g.sy) (fun cells i -> cells.(i) <- f cells.(i))

let remove t key =
  match Hashtbl.find_opt t.rects key with
  | None -> ()
  | Some r ->
      Hashtbl.remove t.rects key;
      update_cells t (take_grid t key r) r (without key)

let insert t key rect =
  if Hashtbl.mem t.rects key then remove t key;
  let r = Rect.translate rect ~dx:(-t.ox) ~dy:(-t.oy) in
  Hashtbl.replace t.rects key r;
  let sx = axis_shift t.bits r.Rect.x0 r.Rect.x1 in
  let i = enter t sx (axis_shift t.bits r.Rect.y0 r.Rect.y1) (key, r) in
  if t.grids.(i).sx <> sx then t.bumped <- (key, i) :: t.bumped

let rekey t key key' =
  match Hashtbl.find_opt t.rects key with
  | Some r when key <> key' ->
      remove t key';
      Hashtbl.remove t.rects key;
      Hashtbl.replace t.rects key' r;
      let bumped = List.mem_assoc key t.bumped in
      let i = take_grid t key r in
      if bumped then t.bumped <- (key', i) :: t.bumped;
      update_cells t i r (renamed key (key', r))
  | _ -> ()

let translate_all t ~dx ~dy =
  t.ox <- t.ox + dx;
  t.oy <- t.oy + dy

(* One query's window (local coordinates, inflated) and its running
   result: a single record per query, so the scan loops below run without
   allocating closures per cell. *)
type window = {
  wx0 : int;
  wx1 : int;
  wy0 : int;
  wy1 : int;
  mutable keys : int list;
  mutable scanned : int;
}

(* Collect the keys of [entries] meeting the window.  An entry sits in every
   cell of its grid it covers, and is tested only in the first one the
   scan meets: [xlo] / [ylo] are the low edges of the current column / row,
   or [min_int] in the first scanned one, and an entry starting below them
   was met earlier — so no key is collected twice. *)
let rec scan w xlo ylo = function
  | [] -> ()
  | (key, (r : Rect.t)) :: rest ->
      w.scanned <- w.scanned + 1;
      if
        r.Rect.x0 >= xlo && r.Rect.y0 >= ylo && r.Rect.x0 <= w.wx1
        && w.wx0 <= r.Rect.x1 && r.Rect.y0 <= w.wy1 && w.wy0 <= r.Rect.y1
      then w.keys <- key :: w.keys;
      scan w xlo ylo rest

(* Clamped to the grid's occupied cells, a window far wider than the
   layout visits only the tiles the layout has. *)
let scan_grid w g =
  let x0 = Int.max (w.wx0 asr g.sx) g.bx0 and x1 = Int.min (w.wx1 asr g.sx) g.bx1 in
  let y0 = Int.max (w.wy0 asr g.sy) g.by0 and y1 = Int.min (w.wy1 asr g.sy) g.by1 in
  if x0 <= x1 && y0 <= y1 then
    for ty = y0 asr tile_bits to y1 asr tile_bits do
      let drow = ((ty - g.ty0) * g.tw) - g.tx0 in
      let cy0 = Int.max y0 (ty lsl tile_bits)
      and cy1 = Int.min y1 ((ty lsl tile_bits) + tile - 1) in
      for tx = x0 asr tile_bits to x1 asr tile_bits do
        let cells = g.dir.(drow + tx) in
        if Array.length cells > 0 then begin
          let cx0 = Int.max x0 (tx lsl tile_bits)
          and cx1 = Int.min x1 ((tx lsl tile_bits) + tile - 1) in
          for cy = cy0 to cy1 do
            let row = (cy land (tile - 1)) lsl tile_bits in
            for cx = cx0 to cx1 do
              match cells.(row + (cx land (tile - 1))) with
              | [] -> ()
              | l ->
                  scan w
                    (if cx = x0 then min_int else cx lsl g.sx)
                    (if cy = y0 then min_int else cy lsl g.sy)
                    l
            done
          done
        end
      done
    done

let query t rect ~margin =
  Amg_robust.Inject.(probe Sindex_query);
  if Hashtbl.length t.rects = 0 then []
  else begin
    let w =
      {
        wx0 = rect.Rect.x0 - t.ox - margin;
        wx1 = rect.Rect.x1 - t.ox + margin;
        wy0 = rect.Rect.y0 - t.oy - margin;
        wy1 = rect.Rect.y1 - t.oy + margin;
        keys = [];
        scanned = 0;
      }
    in
    Array.iter (scan_grid w) t.grids;
    let result = List.sort Int.compare w.keys in
    if Amg_obs.Obs.enabled () then begin
      Amg_obs.Obs.count "sindex.queries" 1;
      Amg_obs.Obs.count "sindex.scanned" w.scanned;
      Amg_obs.Obs.count "sindex.hits" (List.length result)
    end;
    result
  end

let iter t f =
  Hashtbl.iter (fun key r -> f key (Rect.translate r ~dx:t.ox ~dy:t.oy)) t.rects

let bbox t =
  let acc = ref None in
  Hashtbl.iter
    (fun _ r ->
      acc := Some (match !acc with None -> r | Some h -> Rect.hull h r))
    t.rects;
  Option.map (fun r -> Rect.translate r ~dx:t.ox ~dy:t.oy) !acc
