(* optimize_local against a reference climber.  The reference is the
   steepest descent of the documentation, written as plainly as
   possible: every candidate rebuilt from scratch by [Optimize.apply] and
   rated by [Rating.rate] — no prefix cache, no pool, no completion
   bound — with the same seeded restarts and the same skip of swaps
   between interchangeable steps.  optimize_local abandons candidates
   the completion bound shows cannot improve; the rating, the chosen
   order and the eval count must still be the reference's, for every
   domain count and cache state. *)

module Env = Amg_core.Env
module Rating = Amg_core.Rating
module Optimize = Amg_core.Optimize
module Pcache = Amg_core.Prefix_cache
module Obs = Amg_obs.Obs
module Policy = Amg_robust.Policy
module S = Test_symmetry

(* Returns [(rating, order, evals)], or [None] when every start is
   rejected. *)
let reference ?base env ~rating ?(restarts = 3) ?(seed = 1) steps =
  let evals = ref 0 in
  let rate order =
    incr evals;
    match Optimize.apply ?base env ~name:"p" order with
    | main -> Some (Rating.rate env rating main)
    | exception Env.Rejected _ -> None
  in
  (* The documented LCG restarts. *)
  let state = ref (seed land 0x3FFFFFFF) in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      state := ((!state * 1664525) + 1013904223) land 0x3FFFFFFF;
      let j = !state mod (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let classes = Optimize.interchange_classes ?base ~rating steps in
  let class_of s =
    let rec go i = function
      | [] -> assert false
      | s' :: tl -> if s' == s then classes.(i) else go (i + 1) tl
    in
    go 0 steps
  in
  let n = List.length steps in
  let swap order i j =
    let a = Array.of_list order in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    Array.to_list a
  in
  let rec climb order r =
    let a = Array.of_list order in
    let best = ref None in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        if class_of a.(i) <> class_of a.(j) then
          let cand = swap order i j in
          match (rate cand, !best) with
          | Some rc, Some (rb, _) when rc >= rb -> ()
          | Some rc, _ -> best := Some (rc, cand)
          | None, _ -> ()
      done
    done;
    match !best with
    | Some (rc, cand) when rc < r -> climb cand rc
    | _ -> (r, order)
  in
  let starts = steps :: List.init (max 0 (restarts - 1)) (fun _ -> shuffle steps) in
  let best =
    List.fold_left
      (fun acc start ->
        match (acc, rate start) with
        | acc, None -> acc
        | None, Some r -> Some (climb start r)
        | Some (rb, ob), Some r ->
            let rc, oc = climb start r in
            if rc < rb then Some (rc, oc) else Some (rb, ob))
      None starts
  in
  Option.map (fun (r, order) -> (r, order, !evals)) best

let uids = List.map (fun s -> s.Optimize.uid)

(* One optimize_local run per domain count and cache state: no cache, a
   fresh one, and the same cache again, warm. *)
let runs ?base ?seed ?(domain_counts = Test_util.domain_counts) env ~rating steps =
  let local ~domains cache =
    match Optimize.optimize_local env ~name:"p" ?base ~rating ?seed ~domains ~cache steps with
    | _, r, order, evals -> Some (r, uids order, evals)
    | exception Env.Rejected _ -> None
  in
  List.concat_map
    (fun d ->
      let warm = Pcache.create () in
      [
        (Printf.sprintf "%d domains, no cache" d, local ~domains:d Pcache.disabled);
        (Printf.sprintf "%d domains, fresh cache" d, local ~domains:d warm);
        (Printf.sprintf "%d domains, warm cache" d, local ~domains:d warm);
      ])
    domain_counts

(* Packs of two to seven rows, built like test_symmetry's, each searched
   on one of the domain counts, one in four under the permissive policy
   (whose bound keeps only the partial layout). *)
let gen_case =
  QCheck2.Gen.(
    triple
      (triple
         (oneofl [ S.Plain; S.Shared_net; S.Sensitive; S.Base ])
         (int_range 2 7 >>= fun n -> list_size (return n) S.gen_row)
         (int_range 1 4))
      (oneofl Test_util.domain_counts)
      (frequencyl [ (3, Policy.Strict); (1, Policy.Permissive) ]))

let print_case (case, domains, mode) =
  Printf.sprintf "%s, %d domains%s" (S.print_case case) domains
    (if mode = Policy.Permissive then ", permissive" else "")

let prop_matches_reference =
  QCheck2.Test.make ~name:"optimize_local = reference climber (n <= 7)" ~count:30
    ~print:print_case gen_case (fun (((_, _, seed) as case), domains, mode) ->
      let e, steps, base, rating = S.setup case in
      Policy.set_mode mode;
      Fun.protect ~finally:(fun () -> Policy.set_mode Policy.Strict) @@ fun () ->
      let expected =
        Option.map
          (fun (r, order, evals) -> (r, uids order, evals))
          (reference ?base e ~rating ~seed steps)
      in
      List.for_all
        (fun (what, got) ->
          got = expected
          || QCheck2.Test.fail_reportf "%s: %s differs from the reference" what
               (match got with
               | Some (r, _, evals) -> Printf.sprintf "rating %g, %d evals" r evals
               | None -> "every order rejected"))
        (runs ?base ~seed ~domain_counts:[ domains ] e ~rating steps))

(* --- the benchmark's n = 12 packs -------------------------------------- *)

(* Each bench pack with its rating, eval count and chosen order, given as
   positions in the pack. *)
let pinned =
  [
    (List.nth Test_bb.packs 0, 327, [ 1; 0; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11 ]);
    (List.nth Test_bb.packs 1, 363, [ 7; 1; 2; 3; 4; 5; 6; 0; 8; 9; 10; 11 ]);
  ]

let test_bench_packs () =
  let e = Env.bicmos () in
  List.iter
    (fun (widths, evals, order) ->
      let name = String.concat " " (List.map string_of_int widths) in
      let steps = Test_bb.pack_steps e widths in
      let expected = Some (4543.5, uids (List.map (List.nth steps) order), evals) in
      List.iter
        (fun (what, got) ->
          Alcotest.(check bool) (Printf.sprintf "%s: %s" name what) true (got = expected))
        (runs e ~rating:Rating.default steps))
    pinned

(* The bound does the work on the bench pack: candidates are abandoned. *)
let test_abandoned_counter () =
  let e = Env.bicmos () in
  let widths, _, _ = List.hd pinned in
  let steps = Test_bb.pack_steps e widths in
  let abandoned =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        Obs.enable ();
        ignore (Optimize.optimize_local e ~name:"p" ~cache:Pcache.disabled steps);
        Obs.counter "optimize.local_abandoned")
  in
  Alcotest.(check bool) "optimize.local_abandoned > 0" true (abandoned > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "n=12 bench packs: pinned rating, order, evals" `Quick
      test_bench_packs;
    Alcotest.test_case "optimize.local_abandoned counter" `Quick
      test_abandoned_counter;
  ]
