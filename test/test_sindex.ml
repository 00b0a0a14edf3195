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
    (* Now and then a rectangle kilometres away: scattered geometry the
       index must hold without a directory spanning the gap. *)
    let coord = frequency [ (9, int_range (-50_000) 50_000); (1, int_range (-2_000_000_000) 2_000_000_000) ] in
    let* x = coord in
    let* y = coord in
    (* Up to 180 um on either axis: long rails, tall strips and wells
       land on the index's coarse size classes. *)
    let* w = oneof [ int_range 100 12_000; int_range 100 180_000 ] in
    let* h = oneof [ int_range 100 12_000; int_range 100 180_000 ] in
    return (Rect.make ~x0:x ~y0:y ~x1:(x + w) ~y1:(y + h)))

(* The model: key -> world rectangle, in an association list. *)
let model_query model window margin =
  let inflated = Rect.inflate window margin in
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

let prop_query_matches_model =
  let gen =
    QCheck2.Gen.(
      tup4
        (tup4
           (list_size (int_range 0 40) gen_rect) (* inserts, keyed by position *)
           (list_size (int_range 0 10) (int_range 0 39)) (* keys to remove *)
           (list_size (int_range 0 6) (tup2 (int_range 0 39) gen_rect))
           (* keys re-inserted after the translation *)
           (list_size (int_range 0 6) (tup2 (int_range 0 39) (int_range 0 39))))
           (* keys renamed, old -> new *)
        (tup2 (int_range (-30_000) 30_000) (int_range (-30_000) 30_000))
        (list_size (int_range 0 8) (tup2 (int_range 40 60) gen_rect))
        (* inserts into a copy *)
        (list_size (int_range 1 4) (tup2 gen_rect (int_range 0 3_000)))
        (* windows, margins *))
  in
  QCheck2.Test.make ~name:"Sindex.query = naive filter" ~count:500 gen
    (fun ((inserts, removals, reinserts, rekeys), (dx, dy), copy_inserts, windows) ->
      let ix = Sindex.create () in
      List.iteri (fun key r -> Sindex.insert ix key r) inserts;
      List.iter (fun key -> Sindex.remove ix key) removals;
      Sindex.translate_all ix ~dx ~dy;
      List.iter (fun (key, r) -> Sindex.insert ix key r) reinserts;
      let model =
        List.mapi (fun key r -> (key, Rect.translate r ~dx ~dy)) inserts
        |> List.filter (fun (key, _) -> not (List.mem key removals))
      in
      let model =
        List.fold_left
          (fun m (key, r) -> (key, r) :: List.remove_assoc key m)
          model reinserts
      in
      List.iter (fun (k, k') -> Sindex.rekey ix k k') rekeys;
      let model =
        List.fold_left
          (fun m (k, k') ->
            match List.assoc_opt k m with
            | Some r when k <> k' -> (k', r) :: List.remove_assoc k' (List.remove_assoc k m)
            | _ -> m)
          model rekeys
      in
      (* A copy mutated on its own never changes the original's answers.
         Copy keys (40..60) are disjoint from the original's (0..39). *)
      let dropped = List.filteri (fun i _ -> i mod 3 = 0) model |> List.map fst in
      let cp = Sindex.copy ix in
      List.iter (fun (key, r) -> Sindex.insert cp key r) copy_inserts;
      List.iter (Sindex.remove cp) dropped;
      Sindex.translate_all cp ~dx:7_000 ~dy:(-3_000);
      let cp_model =
        List.fold_left
          (fun m (key, r) -> (key, r) :: List.remove_assoc key m)
          (List.filter (fun (key, _) -> not (List.mem key dropped)) model)
          copy_inserts
        |> List.map (fun (key, r) -> (key, Rect.translate r ~dx:7_000 ~dy:(-3_000)))
      in
      List.for_all
        (fun (window, margin) ->
          Sindex.query ix window ~margin = model_query model window margin
          && Sindex.query cp window ~margin = model_query cp_model window margin)
        windows
      && Sindex.cardinal ix = List.length model
      && Sindex.cardinal cp = List.length cp_model)

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

(* --- Lobj.rederive vs. removing and re-adding every array's cuts --- *)

module Derive = Amg_layout.Derive

(* The rebuild before cut reuse, written from the public API: array by
   array, remove every member, then add the derived cuts with fresh ids. *)
let reference_rederive o rules =
  List.iter
    (fun (array_id, (spec : Lobj.array_spec)) ->
      List.iter
        (fun (s : Shape.t) ->
          if Shape.equal_origin s.Shape.origin (Shape.Array_member array_id) then
            Lobj.remove o s.Shape.id)
        (Lobj.shapes o);
      let containers =
        List.map
          (fun id ->
            let s = Lobj.find_exn o id in
            (s.Shape.layer, s.Shape.rect))
          spec.Lobj.container_ids
      in
      List.iter
        (fun rect ->
          ignore
            (Lobj.add_shape o ~layer:spec.Lobj.cut_layer ~rect ?net:spec.Lobj.array_net
               ~origin:(Shape.Array_member array_id) ()))
        (Derive.cut_array rules ~containers ~cut_layer:spec.Lobj.cut_layer))
    (Lobj.array_specs o)

(* Cut layer and container layers of an array. *)
let array_kinds =
  [ ("contact", [ "metal1"; "poly" ]); ("contact", [ "metal1" ]); ("via", [ "metal1"; "metal2" ]) ]

let gen_array =
  QCheck2.Gen.(
    tup4 (int_range 0 2)
      (tup2 (int_range 0 60) (int_range 0 60)) (* position, 0.5 um steps *)
      (tup2 (int_range 4 24) (int_range 4 24)) (* size, 0.5 um steps *)
      (oneofl [ Some "a"; Some "b"; None ]))

(* One edit: move one edge of one container, then rebuild; [rollback]
   wraps it in a snapshot that is restored afterwards; [shift] translates
   the whole object first. *)
let gen_edit =
  QCheck2.Gen.(
    tup4 (int_range 0 5) (int_range 0 1) (oneofl Dir.all)
      (tup3 (int_range (-6) 6) bool (oneofl [ (0, 0); (0, 0); (1500, -500) ])))

let build_arrays specs =
  let o = Lobj.create "arrays" in
  (* A user shape on each cut layer, so cut-layer queries also meet
     non-members. *)
  ignore (Lobj.add_shape o ~layer:"contact" ~rect:(Rect.of_size ~x:0 ~y:0 ~w:1000 ~h:1000) ());
  ignore (Lobj.add_shape o ~layer:"via" ~rect:(Rect.of_size ~x:20_000 ~y:0 ~w:1000 ~h:1000) ());
  List.iter
    (fun (kind, (x, y), (w, h), net) ->
      let cut_layer, layers = List.nth array_kinds kind in
      let rect = Rect.of_size ~x:(x * 500) ~y:(y * 500) ~w:(w * 500) ~h:(h * 500) in
      let ids =
        List.map (fun layer -> (Lobj.add_shape o ~layer ~rect ?net ()).Shape.id) layers
      in
      ignore (Lobj.register_array o ~cut_layer ~container_ids:ids ?net ()))
    specs;
  o

let observe o =
  let windows =
    List.init 5 (fun i -> Rect.of_size ~x:(i * 6000) ~y:(i * 5000) ~w:9000 ~h:7000)
  in
  ( List.map
      (fun (s : Shape.t) -> (s.Shape.id, s.layer, s.rect, s.net, s.origin))
      (Lobj.shapes o),
    Lobj.next_id o,
    Lobj.bbox o,
    List.map
      (fun layer ->
        ( Lobj.bbox_on o layer,
          List.map
            (fun w -> List.map (fun (s : Shape.t) -> s.Shape.id) (Lobj.near o ~layer w ~margin:1000))
            windows ))
      [ "metal1"; "metal2"; "poly"; "contact"; "via" ],
    List.map (fun (id, _) -> Lobj.array_member_count o id) (Lobj.array_specs o) )

let prop_rederive_matches_reference =
  let gen = QCheck2.Gen.(tup2 (list_size (int_range 1 6) gen_array) (list_size (int_range 1 8) gen_edit)) in
  QCheck2.Test.make ~name:"Lobj.rederive = remove-all/re-add reference" ~count:300 gen
    (fun (specs, edits) ->
      let rules = rules () in
      let a = build_arrays specs and b = build_arrays specs in
      Lobj.rederive a rules;
      reference_rederive b rules;
      let same () = observe a = observe b in
      let ok = ref (same ()) in
      let n = List.length specs in
      List.iter
        (fun (arr, which, side, (delta, rollback, (dx, dy))) ->
          let edit o rebuild =
            Lobj.translate o ~dx ~dy;
            let _, spec = List.nth (Lobj.array_specs o) (arr mod n) in
            let ids = spec.Lobj.container_ids in
            let s = Lobj.find_exn o (List.nth ids (which mod List.length ids)) in
            let r = Rect.grow_side s.Shape.rect side (delta * 500) in
            if Rect.width r >= 500 && Rect.height r >= 500 then
              Lobj.replace o (Shape.with_rect s r);
            rebuild o rules
          in
          if rollback then begin
            let sa = Lobj.snapshot a and sb = Lobj.snapshot b in
            edit a Lobj.rederive;
            edit b reference_rederive;
            ok := !ok && same ();
            Lobj.restore a sa;
            Lobj.restore b sb;
            Lobj.release a sa;
            Lobj.release b sb
          end
          else begin
            edit a Lobj.rederive;
            edit b reference_rederive
          end;
          ok := !ok && same ();
          (* A rebuild with nothing changed renumbers the same cuts. *)
          Lobj.rederive a rules;
          reference_rederive b rules;
          ok := !ok && same ())
        edits;
      !ok)

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
    QCheck_alcotest.to_alcotest prop_rederive_matches_reference;
    Alcotest.test_case "diff-pair bb optimum unchanged" `Quick
      test_diffpair_bb_regression;
  ]
