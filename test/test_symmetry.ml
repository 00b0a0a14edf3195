(* Symmetry breaking in the order searches: which steps are
   interchangeable, and — differentially, against the exhaustive search
   over all n! orders — that skipping the orders which only exchange
   interchangeable steps never changes what bb and local search return.
   The generated packs also drive test_bb's admissibility property. *)

module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module Rating = Amg_core.Rating
module Optimize = Amg_core.Optimize
module Pcache = Amg_core.Prefix_cache
module Policy = Amg_robust.Policy
module Obs = Amg_obs.Obs
module M = Amg_modules

let um = Units.of_um

(* One contact row of the generated packs: its width, direction and
   landing layer, the edges it marks variable, its cross-axis alignment
   and whether its step ignores its landing layer. *)
type row = {
  w : float;
  dir : Dir.t;
  landing : string;
  var_edges : Dir.t list;
  align : Amg_compact.Successive.align;
  ignore : bool;
}

let plain w dir =
  { w; dir; landing = "metal1"; var_edges = []; align = `Keep; ignore = false }

(* One contact row step per row; row [i] owns net [nets i]. *)
let row_steps e ?(nets = fun i -> Printf.sprintf "n%d" i) rows =
  List.mapi
    (fun i r ->
      let row =
        M.Contact_row.make e ~layer:r.landing ~net:(nets i) ~w:(um r.w)
          ~var_edges:r.var_edges ()
      in
      Lobj.set_name row (Printf.sprintf "row%d" i);
      let ignore_layers = if r.ignore then [ r.landing ] else [] in
      Optimize.step row ~ignore_layers ~align:r.align r.dir)
    rows

(* The bench pack: widths cycle through four values, directions
   alternate, so rows i and i + 4 are interchangeable. *)
let bench_rows n =
  List.init n (fun i ->
      plain
        (float_of_int (20 + (i mod 4 * 12)))
        (if i mod 2 = 0 then Dir.South else Dir.West))

let classes ?base ?(rating = Rating.default) steps =
  Array.to_list (Optimize.interchange_classes ?base ~rating steps)

let ints = Alcotest.(list int)

let test_classes () =
  let e = Env.bicmos () in
  let steps = row_steps e (bench_rows 12) in
  Alcotest.check ints "bench pack: four classes of three"
    [ 0; 1; 2; 3; 0; 1; 2; 3; 0; 1; 2; 3 ]
    (classes steps);
  let shared =
    row_steps e ~nets:(fun i -> if i = 4 then "n0" else Printf.sprintf "n%d" i)
      (bench_rows 8)
  in
  Alcotest.check ints "a shared net makes both rows singletons"
    [ 0; 1; 2; 3; 4; 1; 2; 3 ] (classes shared);
  let base = Lobj.create "base" in
  ignore
    (Lobj.add_shape base ~layer:"metal1"
       ~rect:(Amg_geometry.Rect.of_size ~x:0 ~y:0 ~w:(um 4.) ~h:(um 4.))
       ~net:"n4" ());
  let steps8 = row_steps e (bench_rows 8) in
  Alcotest.check ints "a net of the base takes its row out"
    [ 0; 1; 2; 3; 4; 1; 2; 3 ] (classes ~base steps8);
  let sensitive = Rating.with_sensitive_nets Rating.default [ "n5" ] in
  Alcotest.check ints "a sensitive net takes its row out"
    [ 0; 1; 2; 3; 0; 5; 2; 3 ]
    (classes ~rating:sensitive steps8);
  Alcotest.check ints "no capacitance term, no sensitivity"
    [ 0; 1; 2; 3; 0; 1; 2; 3 ]
    (classes
       ~rating:(Rating.with_sensitive_nets ~cap_weight:0. Rating.default [ "n5" ])
       steps8);
  let dirs =
    row_steps e
      (List.map (plain 20.) [ Dir.South; Dir.West; Dir.South; Dir.North ])
  in
  Alcotest.check ints "directions must match" [ 0; 1; 0; 3 ] (classes dirs);
  let ignoring =
    List.mapi
      (fun i s ->
        if i = 2 then { s with Optimize.ignore_layers = [ "metal1" ] } else s)
      dirs
  in
  Alcotest.check ints "ignored layers must match" [ 0; 1; 2; 3 ]
    (classes ignoring);
  Policy.set_mode Policy.Permissive;
  let permissive =
    Fun.protect
      ~finally:(fun () -> Policy.set_mode Policy.Strict)
      (fun () -> classes steps)
  in
  Alcotest.check ints "permissive policy: every step alone"
    (List.init 12 Fun.id) permissive

(* --- differential: bb and local against all n! orders ---------------- *)

type variant = Plain | Shared_net | Sensitive | Base

let variant_name = function
  | Plain -> "plain"
  | Shared_net -> "shared net"
  | Sensitive -> "sensitive net"
  | Base -> "base holds n0"

(* Packs of two to six rows.  Most rows are plain metal1 rows, so packs
   keep interchangeable twins; the rest cover the four directions,
   variable edges, poly and pdiff landings (contact arrays, cross-layer
   spacing), an ignored landing layer and [`Center]/[`Min] alignment.
   The variant adds a shared net, a sensitive net or a base. *)
let gen_row =
  QCheck2.Gen.(
    let* w = oneofl [ 20.; 32. ] in
    let* dir =
      frequencyl [ (3, Dir.South); (3, Dir.West); (1, Dir.North); (1, Dir.East) ]
    in
    let* landing = frequencyl [ (4, "metal1"); (1, "poly"); (1, "pdiff") ] in
    let* var_edges =
      frequency
        [
          (4, return []);
          (1, map (List.sort_uniq compare) (list_size (int_range 1 2) (oneofl Dir.all)));
        ]
    in
    let* align = frequencyl [ (6, `Keep); (1, `Center); (1, `Min) ] in
    let+ ignore = frequencyl [ (6, false); (1, true) ] in
    { w; dir; landing; var_edges; align; ignore })

let gen_case =
  QCheck2.Gen.(
    triple
      (oneofl [ Plain; Shared_net; Sensitive; Base ])
      (int_range 2 6 >>= fun n -> list_size (return n) gen_row)
      (int_range 1 4))

let print_row r =
  let align =
    match r.align with
    | `Keep -> ""
    | `Center -> " center"
    | `Min -> " min"
    | `Max -> " max"
  in
  Printf.sprintf "%g %s %s%s%s%s" r.w (Dir.to_string r.dir) r.landing
    (match r.var_edges with
    | [] -> ""
    | ds -> " var:" ^ String.concat "" (List.map Dir.to_string ds))
    align
    (if r.ignore then " ignore" else "")

let print_case (v, rows, seed) =
  Printf.sprintf "%s seed=%d [%s]" (variant_name v) seed
    (String.concat "; " (List.map print_row rows))

let same_order a b = List.compare_lengths a b = 0 && List.for_all2 ( == ) a b

(* The search inputs of a case: environment, steps, base and rating. *)
let setup (variant, rows, _) =
  let e = Env.bicmos () in
  (* The last row shares row 0's net, so a twin of row 0 that does
     not is no longer interchangeable with it. *)
  let last = List.length rows - 1 in
  let nets i =
    if variant = Shared_net && i = last && i > 1 then "n0"
    else Printf.sprintf "n%d" i
  in
  let steps = row_steps e ~nets rows in
  let rating =
    if variant = Sensitive then
      Rating.with_sensitive_nets Rating.default [ "n0" ]
    else Rating.default
  in
  let base =
    if variant = Base then
      Some (M.Contact_row.make e ~layer:"metal1" ~net:"n0" ~w:(um 8.) ())
    else None
  in
  (e, steps, base, rating)

let matches_brute_force ((_, _, seed) as case) =
  let e, steps, base, rating = setup case in
  let cache = Pcache.create () in
  let rec fact n = if n <= 1 then 1 else n * fact (n - 1) in
  let _, r_all, o_all =
    Optimize.optimize e ~name:"p" ?base ~rating ~cache
      ~max_orders:(fact (List.length steps)) steps
  in
  let _, r_bb, o_bb, _ =
    Optimize.optimize_bb e ~name:"p" ?base ~rating ~cache steps
  in
  let _, r_local, o_local, _ =
    Optimize.optimize_local e ~name:"p" ?base ~rating ~seed ~cache steps
  in
  let rate order = Rating.rate e rating (Optimize.apply ?base e ~name:"p" order) in
  Float.equal r_bb r_all && same_order o_bb o_all
  && r_bb <= r_local
  && r_local <= rate steps
  && Float.equal (rate o_local) r_local

let prop_matches_brute_force =
  QCheck2.Test.make ~name:"bb = all n! orders; local <= canonical, re-rates"
    ~count:60 ~print:print_case gen_case matches_brute_force

(* Packs on which classes that ignored a net shared with another row, or
   with the base, would change the bb winner. *)
let test_known_packs () =
  List.iter
    (fun case ->
      Alcotest.(check bool) (print_case case) true (matches_brute_force case))
    [
      (Shared_net, [ plain 20. Dir.South; plain 20. Dir.West; plain 20. Dir.West ], 1);
      (Base, [ plain 32. Dir.West; plain 32. Dir.West; plain 20. Dir.South ], 1);
    ]

(* Seven rows, all 5040 orders: a pack mixing directions, landings,
   alignments and an ignored layer, with a sensitive net, and a pack of
   twins on top of a base.  (Variable edges make 5040 rebuilds slow; the
   generated packs cover them.) *)
let test_n7_packs () =
  let mixed =
    [
      plain 20. Dir.South;
      { (plain 32. Dir.West) with landing = "poly" };
      plain 20. Dir.North;
      plain 20. Dir.South;
      { (plain 32. Dir.East) with align = `Center };
      { (plain 20. Dir.West) with landing = "pdiff"; ignore = true };
      { (plain 32. Dir.South) with align = `Min };
    ]
  in
  let twins =
    List.map (fun (w, d) -> plain w d)
      [
        (20., Dir.South); (32., Dir.West); (20., Dir.South); (32., Dir.West);
        (20., Dir.South); (32., Dir.West); (44., Dir.South);
      ]
  in
  List.iter
    (fun case ->
      Alcotest.(check bool) (print_case case) true (matches_brute_force case))
    [ (Sensitive, mixed, 2); (Base, twins, 4) ]

(* --- the skip counter ------------------------------------------------- *)

let skips f =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Obs.enable ();
      f ();
      List.assoc_opt "optimize.symmetric_skips" (Obs.counters ()))

let test_skip_counter () =
  let e = Env.bicmos () in
  let rows = bench_rows 6 in
  let search steps () =
    ignore (Optimize.optimize_bb e ~name:"p" steps);
    ignore (Optimize.optimize_local e ~name:"p" steps)
  in
  (match skips (search (row_steps e rows)) with
  | Some k -> Alcotest.(check bool) "private nets: symmetric orders skipped" true (k > 0)
  | None -> Alcotest.fail "optimize.symmetric_skips not recorded");
  Alcotest.(check (option int))
    "one net shared by every row: nothing skipped" (Some 0)
    (skips (search (row_steps e ~nets:(fun _ -> "vdd") rows)))

let suite =
  [
    Alcotest.test_case "interchange classes" `Quick test_classes;
    QCheck_alcotest.to_alcotest prop_matches_brute_force;
    Alcotest.test_case "packs where looser classes fail" `Quick test_known_packs;
    Alcotest.test_case "n=7 packs: bb = all 5040 orders" `Quick test_n7_packs;
    Alcotest.test_case "symmetric_skips counter" `Quick test_skip_counter;
  ]
