(* bb's completion bound: admissible — never above the best rating any
   completion of a partial order reaches, checked by brute force over
   every prefix of generated packs under both policies — and strong enough to prove the
   n = 12 optimum of the benchmark packs well inside the 500·n node cap,
   with the same answer for every domain count and cache state. *)

module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units
module Lobj = Amg_layout.Lobj
module Env = Amg_core.Env
module Rating = Amg_core.Rating
module Optimize = Amg_core.Optimize
module Pcache = Amg_core.Prefix_cache
module Budget = Amg_robust.Budget
module Policy = Amg_robust.Policy
module S = Test_symmetry

(* Depth-first over every prefix: the best rating of a subtree's valid
   completions, and the first prefix (in placement order) whose bound
   exceeds it. *)
let first_overestimate (e, steps, base, rating) =
  let bad = ref None in
  let rec best_below main prefix remaining =
    let best =
      match remaining with
      | [] -> Rating.rate e rating main
      | _ ->
          List.fold_left
            (fun acc s ->
              let rest = List.filter (fun s' -> s' != s) remaining in
              match Optimize.apply ~base:main e ~name:"p" [ s ] with
              | m -> Float.min acc (best_below m (s :: prefix) rest)
              | exception Env.Rejected _ -> acc)
            infinity remaining
    in
    let bound =
      Optimize.For_test.completion_bound ?base e ~rating ~steps main remaining
    in
    if bound > best && !bad = None then bad := Some (List.rev prefix, bound, best);
    best
  in
  let root = match base with Some b -> Lobj.copy b | None -> Lobj.create "p" in
  ignore (best_below root [] steps);
  !bad

let print_overestimate steps (prefix, bound, best) =
  let index s =
    let rec go i = function
      | [] -> -1
      | s' :: tl -> if s' == s then i else go (i + 1) tl
    in
    go 0 steps
  in
  Printf.sprintf "prefix [%s]: bound %.2f > best completion %.2f"
    (String.concat " " (List.map (fun s -> string_of_int (index s)) prefix))
    bound best

(* Under [mode]; the permissive policy may skip an object, so its bound
   trusts the partial layout alone. *)
let admissible_under mode ~name ~count =
  QCheck2.Test.make ~name ~count ~print:S.print_case S.gen_case (fun case ->
      let ((_, steps, _, _) as input) = S.setup case in
      Policy.set_mode mode;
      match
        Fun.protect
          ~finally:(fun () -> Policy.set_mode Policy.Strict)
          (fun () -> first_overestimate input)
      with
      | None -> true
      | Some o -> QCheck2.Test.fail_report (print_overestimate steps o))

let prop_admissible =
  admissible_under Policy.Strict ~count:60
    ~name:"completion bound <= every completion (n <= 6)"

let prop_admissible_permissive =
  admissible_under Policy.Permissive ~count:40
    ~name:"permissive: completion bound <= every completion"

(* --- the n = 12 proof ------------------------------------------------- *)

(* The two packs of the benchmark's search workload: the committed
   widths, and the one seeded arrangement of them. *)
let packs =
  [
    List.init 12 (fun i -> 20 + (i mod 4 * 12));
    [ 20; 56; 44; 56; 56; 44; 20; 32; 20; 32; 32; 44 ];
  ]

let pack_steps e widths =
  List.mapi
    (fun i w ->
      S.plain (float_of_int w) (if i mod 2 = 0 then Dir.South else Dir.West))
    widths
  |> S.row_steps e

let capped_bb e ~domains ~cache steps =
  let budget = Budget.create ~max_evals:(500 * List.length steps) () in
  let main, r, order, nodes =
    Optimize.optimize_bb e ~name:"pack" ~domains ~budget ~cache steps
  in
  (r, List.map (fun s -> s.Optimize.uid) order, nodes, Budget.degraded budget,
   Lobj.bbox_area main)

let test_n12_proof () =
  let e = Env.bicmos () in
  List.iter
    (fun widths ->
      let name = String.concat " " (List.map string_of_int widths) in
      let steps = pack_steps e widths in
      let ((r, order, nodes, degraded, _) as first) =
        capped_bb e ~domains:1 ~cache:Pcache.disabled steps
      in
      Alcotest.(check (float 0.)) (name ^ ": optimum") 4543.5 r;
      Alcotest.(check bool) (name ^ ": proved, not capped") false degraded;
      Alcotest.(check bool) (name ^ ": at most 100 nodes") true (nodes <= 100);
      let rebuilt =
        Rating.rate e Rating.default
          (Optimize.apply e ~name:"pack"
             (List.map (fun u -> List.find (fun s -> s.Optimize.uid = u) steps) order))
      in
      Alcotest.(check (float 0.)) (name ^ ": order rebuilds") r rebuilt;
      let warm = Pcache.create () in
      List.iter
        (fun (what, domains, cache) ->
          let again = capped_bb e ~domains ~cache steps in
          Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true (again = first))
        [
          ("2 domains, no cache", 2, Pcache.disabled);
          ("4 domains, no cache", 4, Pcache.disabled);
          ("1 domain, fresh cache", 1, Pcache.create ());
          ("2 domains, cold cache", 2, warm);
          ("2 domains, warm cache", 2, warm);
          ("4 domains, warm cache", 4, warm);
          ("1 domain, warm cache", 1, warm);
        ])
    packs

let suite =
  [
    QCheck_alcotest.to_alcotest prop_admissible;
    QCheck_alcotest.to_alcotest prop_admissible_permissive;
    Alcotest.test_case "n=12 packs: proved under the 500n cap" `Quick test_n12_proof;
  ]
