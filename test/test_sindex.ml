(* The spatial index and its consumers: qcheck equivalence of the indexed
   candidate queries against naive all-pairs scans, and a regression pin on
   the diff-pair optimization example. *)

module Rect = Amg_geometry.Rect
module Interval = Amg_geometry.Interval
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Sindex = Amg_geometry.Sindex
module Shape = Amg_layout.Shape
module Lobj = Amg_layout.Lobj
module Constraints = Amg_compact.Constraints
module Successive = Amg_compact.Successive
module Technology = Amg_tech.Technology
module Rules = Amg_tech.Rules
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module M = Amg_modules

let um = Units.of_um
let rules () = Technology.rules (Amg_tech.Bicmos1u.get ())

(* --- Sindex.query vs. filtering the model --- *)

let gen_rect =
  QCheck2.Gen.(
    let* x = int_range (-50_000) 50_000 in
    let* y = int_range (-50_000) 50_000 in
    let* w = int_range 100 180_000 in
    (* up to 180 um wide: wider than max_bins * cell, hits the overflow path *)
    let* h = int_range 100 12_000 in
    return (Rect.make ~x0:x ~y0:y ~x1:(x + w) ~y1:(y + h)))

let prop_query_matches_model =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 0 40) gen_rect) (* inserts, keyed by position *)
        (list_size (int_range 0 10) (int_range 0 39)) (* keys to remove *)
        (tup2 (int_range (-30_000) 30_000) (int_range (-30_000) 30_000))
        (tup2 gen_rect (int_range 0 3_000)) (* window, margin *))
  in
  QCheck2.Test.make ~name:"Sindex.query = naive filter" ~count:500 gen
    (fun (inserts, removals, (dx, dy), (window, margin)) ->
      let ix = Sindex.create () in
      List.iteri (fun key r -> Sindex.insert ix key r) inserts;
      List.iter (fun key -> Sindex.remove ix key) removals;
      Sindex.translate_all ix ~dx ~dy;
      let model =
        List.mapi (fun key r -> (key, Rect.translate r ~dx ~dy)) inserts
        |> List.filter (fun (key, _) -> not (List.mem key removals))
      in
      let inflated = Rect.inflate window margin in
      let expected =
        List.filter_map
          (fun (key, r) ->
            if
              r.Rect.x0 <= inflated.Rect.x1
              && inflated.Rect.x0 <= r.Rect.x1
              && r.Rect.y0 <= inflated.Rect.y1
              && inflated.Rect.y0 <= r.Rect.y1
            then Some key
            else None)
          model
        |> List.sort_uniq Int.compare
      in
      Sindex.query ix window ~margin = expected)

(* --- random layouts shared by the consumer equivalence properties --- *)

let layers = [ "metal1"; "poly"; "pdiff"; "contact" ]

let gen_shape_spec =
  QCheck2.Gen.(
    tup4 (oneofl layers)
      (oneofl [ Some "a"; Some "b"; Some "c"; None ])
      (tup2 (int_range 0 80) (int_range 0 80)) (* position, 0.5 um steps *)
      (tup2 (int_range 1 16) (int_range 1 16)) (* size, 0.5 um steps *))

let build_lobj name specs =
  let o = Lobj.create name in
  List.iter
    (fun (layer, net, (x, y), (w, h)) ->
      ignore
        (Lobj.add_shape o ~layer
           ~rect:
             (Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500))
           ?net ()))
    specs;
  o

(* --- Lobj.near vs. filtering Lobj.shapes --- *)

let prop_near_matches_shapes =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 0 30) gen_shape_spec)
        (oneofl layers)
        (tup2 (int_range (-40) 120) (int_range (-40) 120))
        (tup2 (tup2 (int_range 1 40) (int_range 1 40)) (int_range 0 6)))
  in
  QCheck2.Test.make ~name:"Lobj.near = naive shape filter" ~count:500 gen
    (fun (specs, layer, (x, y), ((w, h), margin)) ->
      let o = build_lobj "near" specs in
      let window = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500) in
      let margin = margin * 500 in
      let inflated = Rect.inflate window margin in
      let expected =
        List.filter
          (fun (s : Shape.t) ->
            Shape.on_layer s layer
            && s.rect.Rect.x0 <= inflated.Rect.x1
            && inflated.Rect.x0 <= s.rect.Rect.x1
            && s.rect.Rect.y0 <= inflated.Rect.y1
            && inflated.Rect.y0 <= s.rect.Rect.y1)
          (Lobj.shapes o)
      in
      Lobj.near o ~layer window ~margin = expected)

(* --- collect_limits vs. the all-pairs scan it replaced --- *)

let naive_limits rules ?ignore_layers d ~main obj =
  List.concat_map
    (fun (a : Shape.t) ->
      List.filter_map
        (fun (b : Shape.t) ->
          match Constraints.pair_limit_rel rules ?ignore_layers d a b with
          | Some (bound, rel) -> Some (bound, a.Shape.id, b.Shape.id, rel)
          | None -> None)
        (Lobj.shapes main))
    (Lobj.shapes obj)

let prop_collect_limits_equiv =
  let gen =
    QCheck2.Gen.(
      tup4
        (list_size (int_range 1 25) gen_shape_spec)
        (list_size (int_range 1 5) gen_shape_spec)
        (oneofl Dir.all)
        (oneofl [ []; [ "metal1" ]; [ "poly" ] ]))
  in
  QCheck2.Test.make ~name:"collect_limits = all-pairs scan" ~count:500 gen
    (fun (main_specs, obj_specs, d, ignore_layers) ->
      let rules = rules () in
      let main = build_lobj "main" main_specs in
      let obj = build_lobj "obj" obj_specs in
      let indexed =
        List.map
          (fun l ->
            ( l.Successive.bound,
              l.Successive.mover.Shape.id,
              l.Successive.target.Shape.id,
              l.Successive.rel ))
          (Successive.collect_limits rules ~ignore_layers d ~main obj)
      in
      indexed = naive_limits rules ~ignore_layers d ~main obj)

(* --- auto_connect vs. a straight reimplementation of the full scan --- *)

let naive_auto_connect rules d ~main obj =
  let axis = Dir.axis d in
  let cross = Dir.cross_axis d in
  let stretchable (s : Shape.t) = Rules.cut_size_opt rules s.Shape.layer = None in
  let extension_safe (s : Shape.t) r' =
    let ok (other : Shape.t) =
      other == s
      ||
      match Constraints.relation rules s other with
      | Constraints.Unconstrained | Constraints.Mergeable -> true
      | Constraints.Separation sep ->
          let dx = Rect.gap Dir.Horizontal r' other.Shape.rect in
          let dy = Rect.gap Dir.Vertical r' other.Shape.rect in
          max dx dy >= sep
    in
    List.for_all ok (Lobj.shapes main) && List.for_all ok (Lobj.shapes obj)
  in
  List.iter
    (fun (a : Shape.t) ->
      List.iter
        (fun (b : Shape.t) ->
          if
            String.equal a.Shape.layer b.Shape.layer
            && Shape.same_net a b && stretchable b
          then begin
            let ia = Rect.span cross a.rect and ib = Rect.span cross b.rect in
            if Interval.overlaps ia ib then begin
              let sa = Rect.span axis a.rect and sb = Rect.span axis b.rect in
              let gap =
                max (sa.Interval.lo - sb.Interval.hi) (sb.Interval.lo - sa.Interval.hi)
              in
              if gap > 0 then begin
                let facing =
                  if sb.Interval.hi <= sa.Interval.lo then
                    match axis with
                    | Dir.Horizontal -> Dir.East
                    | Dir.Vertical -> Dir.North
                  else
                    match axis with
                    | Dir.Horizontal -> Dir.West
                    | Dir.Vertical -> Dir.South
                in
                match Lobj.find main b.Shape.id with
                | Some cur ->
                    let r' = Rect.grow_side cur.Shape.rect facing gap in
                    if extension_safe cur r' then
                      Lobj.replace main (Shape.with_rect cur r')
                | None -> ()
              end
            end
          end)
        (Lobj.shapes main))
    (Lobj.shapes obj)

let shape_fingerprint (s : Shape.t) = (s.Shape.id, s.layer, s.rect, s.net)

let prop_auto_connect_equiv =
  let gen =
    QCheck2.Gen.(
      tup3
        (list_size (int_range 1 20) gen_shape_spec)
        (list_size (int_range 1 4) gen_shape_spec)
        (oneofl Dir.all))
  in
  QCheck2.Test.make ~name:"auto_connect = all-pairs reference" ~count:500 gen
    (fun (main_specs, obj_specs, d) ->
      let rules = rules () in
      let main_a = build_lobj "main" main_specs in
      let main_b = Lobj.copy main_a in
      let obj = build_lobj "obj" obj_specs in
      Successive.auto_connect rules d ~main:main_a obj;
      naive_auto_connect rules d ~main:main_b obj;
      List.map shape_fingerprint (Lobj.shapes main_a)
      = List.map shape_fingerprint (Lobj.shapes main_b))

(* --- regression: the diff-pair branch-and-bound optimum is unchanged --- *)

let test_diffpair_bb_regression () =
  let env = Env.bicmos () in
  let trans =
    M.Mosfet.make env ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.)
      ~sd_contacts:`None ~well:false ()
  in
  Lobj.set_name trans "trans";
  let polycon = M.Contact_row.make env ~layer:"poly" ~l:(um 5.) ~net:"g" () in
  Lobj.set_name polycon "polycon";
  let diffcon = M.Contact_row.make env ~layer:"pdiff" ~w:(um 10.) ~net:"sd" () in
  Lobj.set_name diffcon "diffcon";
  let steps =
    [
      Optimize.step trans Dir.South;
      Optimize.step polycon ~ignore_layers:[ "poly" ] Dir.South;
      Optimize.step diffcon ~ignore_layers:[ "pdiff" ] Dir.South;
    ]
  in
  let main, r, order, nodes = Optimize.optimize_bb env ~name:"dp" steps in
  Alcotest.(check (float 0.0001)) "rating" 196.0 r;
  Alcotest.(check (list string)) "order"
    [ "diffcon"; "trans"; "polycon" ]
    (List.map (fun s -> Lobj.name s.Optimize.obj) order);
  Alcotest.(check int) "bbox area" 196_000_000 (Lobj.bbox_area main);
  (* Root + 3 sub-searches seeded with the canonical order's rating; the
     count is a deterministic, domain-count-independent work counter. *)
  Alcotest.(check int) "nodes" 12 nodes

let suite =
  [
    QCheck_alcotest.to_alcotest prop_query_matches_model;
    QCheck_alcotest.to_alcotest prop_near_matches_shapes;
    QCheck_alcotest.to_alcotest prop_collect_limits_equiv;
    QCheck_alcotest.to_alcotest prop_auto_connect_equiv;
    Alcotest.test_case "diff-pair bb optimum unchanged" `Quick
      test_diffpair_bb_regression;
  ]
