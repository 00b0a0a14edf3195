(* Workload "search": cold compaction-order searches on the contact-row
   pack of BENCH_compact.json — n rows (12 by default) of metal1 contact
   rows, compaction direction alternating SOUTH/WEST, widths from the
   committed cycle {20, 32, 44, 56} um.  Every pack is searched twice,
   by [optimize_local] and by [optimize_bb] under the committed 500·n
   node cap, each on [domains] = nproc, with a fresh prefix cache and a
   compacted heap — what a fresh `amgen build --optimize` process pays.

   The run searches in rounds.  A round searches every pack of a fixed
   catalogue — the committed pack and [arranged] arrangements of its rows
   — in both modes, in an order the seed draws.  The catalogue is the
   same for every seed: arrangements differ in search cost by about 13 %,
   so with the ten or so packs a run has time for, seeded packs moved
   the throughput from seed to seed by more than its bound.

   [ops_per_s] is the throughput of a round of median searches: the
   searches in a round over the sum, across the catalogue's searches, of
   each one's median time over the run.  On a shared host, load from
   other tenants stalls one domain of a search and the other waits for
   it, so single searches (and whole rounds) slow by a third at times;
   the median of each search leaves those out.  Over nine 30 s runs on a
   2-vCPU VM it spread by 6 % (IQR / median) where the median round
   spread by 9 %.

   Why: core.optimize, core.prefix_cache, core.rating, parallel (inside
   one search) and the compaction hot path do nearly all the work; lang,
   drc and serve stay idle.  A stronger bb bound, symmetry breaking, the
   cache and the pool move this workload. *)

open Common
module Env = Amg_core.Env
module Optimize = Amg_core.Optimize
module Rating = Amg_core.Rating
module Pcache = Amg_core.Prefix_cache
module Budget = Amg_robust.Budget
module Dir = Amg_geometry.Dir
module Units = Amg_geometry.Units

(* BENCH_compact.json, row n=12: optimize_local's rating on the committed
   pack, and the rating the capped bb must match or beat (lower is
   better). *)
let committed_rating_n12 = 4543.5

let committed_widths n = List.init n (fun i -> 20 + (i mod 4 * 12))

(* A seeded arrangement of the committed widths: every pack holds the
   same rows, so packs differ in order only, not in size. *)
let seeded_widths st n =
  let a = Array.of_list (committed_widths n) in
  shuffle st a;
  Array.to_list a

let steps env widths =
  List.mapi
    (fun i w ->
      let row =
        Amg_modules.Contact_row.make env ~layer:"metal1"
          ~net:(Printf.sprintf "n%d" i)
          ~w:(Units.of_um (float_of_int w))
          ()
      in
      Optimize.step row (if i mod 2 = 0 then Dir.South else Dir.West))
    widths

let node_cap n = 500 * n

type mode = Local | Bb

type op = { pack : int; widths : int list; mode : mode }

let op_name o =
  Printf.sprintf "%s pack %d [%s]"
    (match o.mode with Local -> "optimize_local" | Bb -> "optimize_bb")
    o.pack
    (String.concat " " (List.map string_of_int o.widths))

(* The catalogue: pack 0 is the committed one, then [arranged] fixed
   arrangements of its rows. *)
let arranged = 1

let catalogue n =
  let st = Random.State.make [| 12 |] in
  Array.init (1 + arranged) (fun k -> if k = 0 then committed_widths n else seeded_widths st n)

(* Searches in one round: every pack, in both modes. *)
let round_size = 2 * (1 + arranged)

(* The op stream of one seed: round after round, each a seeded
   permutation of the catalogue's searches. *)
let op_at ~n st =
  let packs = catalogue n in
  let rounds = Hashtbl.create 16 in
  fun i ->
    let r = i / round_size in
    for k = Hashtbl.length rounds to r do
      let a = Array.init round_size Fun.id in
      shuffle st a;
      Hashtbl.add rounds k a
    done;
    let kind = (Hashtbl.find rounds r).(i mod round_size) in
    let p = kind / 2 in
    { pack = p; widths = packs.(p); mode = (if kind mod 2 = 0 then Local else Bb) }

type result = {
  rating : float;
  order : Optimize.step list;
  work : int;  (** local: evaluations; bb: nodes *)
  cache : Pcache.stats;
}

(* The timed part of one operation: the search itself. *)
let search ~domains env o =
  let st = steps env o.widths in
  let cache = Pcache.create () in
  Obs.span "bench.gc" settle;
  let t0 = now () in
  let _, rating, order, work =
    match o.mode with
    | Local -> Optimize.optimize_local env ~name:"pack" ~domains ~cache st
    | Bb ->
        let budget = Budget.create ~max_evals:(node_cap (List.length st)) () in
        Optimize.optimize_bb env ~name:"pack" ~domains ~budget ~cache st
  in
  let dt = now () -. t0 in
  (st, { rating; order; work; cache = Pcache.stats cache }, dt)

let rate env obj = Rating.rate env Rating.default obj

(* Reference checks, outside the timed part.  The returned order is
   rebuilt without any cache and re-rated; it must reproduce the
   reported rating exactly and be no worse than the canonical order.
   The committed pack must also reproduce the committed n=12 ratings;
   packs of at most 7 rows are checked against an exhaustive search
   over every order. *)
let check env o st r =
  let rebuilt = rate env (Optimize.apply env ~name:"pack" r.order) in
  let canonical = rate env (Optimize.apply env ~name:"pack" st) in
  let n = List.length st in
  if rebuilt <> r.rating then
    Some (Printf.sprintf "reported rating %.4f, rebuilt order rates %.4f" r.rating rebuilt)
  else if r.rating > canonical then
    Some (Printf.sprintf "rating %.4f worse than the canonical order's %.4f" r.rating canonical)
  else if o.pack = 0 && n = 12 && o.mode = Local && r.rating <> committed_rating_n12 then
    Some (Printf.sprintf "local rating %.4f, committed %.1f" r.rating committed_rating_n12)
  else if o.pack = 0 && n = 12 && o.mode = Bb && r.rating > committed_rating_n12 then
    Some (Printf.sprintf "capped bb rating %.4f worse than committed %.1f" r.rating committed_rating_n12)
  else if n <= 7 then
    let _, best, _ = Optimize.optimize env ~name:"pack" ~cache:Pcache.disabled ~domains:1 st in
    if r.rating < best then
      Some (Printf.sprintf "rating %.4f beats the exhaustive optimum %.4f" r.rating best)
    else if o.mode = Bb && n <= 6 && r.rating <> best then
      Some (Printf.sprintf "bb rating %.4f, exhaustive optimum %.4f" r.rating best)
    else None
  else None

let setup ~domains () =
  let env = fresh_env () in
  (* Spawn and park the pool, as any process does before its first
     search; the first search would otherwise pay [Domain.spawn]. *)
  Amg_parallel.Pool.warm ~domains ();
  env

(* Search ops [0 ..] in whole rounds until [budget_s] has passed or
   [max_ops] are done.  Only the searches are timed; cache creation, heap
   compaction and the reference checks are not.  Returns the count, the
   searches' seconds, each completed search with its seconds and one
   window per round. *)
let pass ~domains env t next ~budget_s ~max_ops ~on_op =
  let completed = ref [] and busy = ref 0. and windows = ref [] in
  let round_ok = ref 0 and round_s = ref 0. in
  let t0 = now () in
  let i = ref 0 in
  while !i < max_ops && (!i mod round_size <> 0 || now () -. t0 < budget_s) do
    let o = next !i in
    (match protect (fun () -> search ~domains env o) with
    | Error e -> ignore (record t ~what:(op_name o) (Error e))
    | Ok (st, r, dt) ->
        Printf.printf "  %-70s %10.1f ms  rating %.1f\n%!" (op_name o) (dt *. 1000.) r.rating;
        on_op o r;
        let verdict = protect (fun () -> Obs.span "bench.verify" (fun () -> check env o st r)) in
        if record t ~what:(op_name o) verdict
        then begin
          completed := (o, dt) :: !completed;
          busy := !busy +. dt;
          incr round_ok;
          round_s := !round_s +. dt
        end);
    incr i;
    if !i mod round_size = 0 then begin
      windows := (!round_ok, !round_s) :: !windows;
      round_ok := 0;
      round_s := 0.
    end
  done;
  (!i, !busy, !completed, List.rev !windows)

let setup_only opts = ignore (setup ~domains:opts.domains ()); ignore

let e2e ~n opts t =
  let env = setup ~domains:opts.domains () in
  let next = op_at ~n (rng opts 2) in
  let _, _, completed, windows =
    pass ~domains:opts.domains env t next ~budget_s:opts.seconds ~max_ops:max_int
      ~on_op:(fun _ _ -> ())
  in
  let kind o = (o.pack, o.mode) in
  let kinds = List.sort_uniq compare (List.map (fun (o, _) -> kind o) completed) in
  let median_s k =
    median (List.filter_map (fun (o, dt) -> if kind o = k then Some dt else None) completed)
  in
  {
    ops_per_s = float_of_int (List.length kinds) /. sum (List.map median_s kinds);
    window_rates = rates windows;
    lat_ms = List.map (fun (_, dt) -> dt *. 1000.) completed;
    warm = None;
  }

let traced ~n opts t =
  let domains = opts.domains in
  let env = setup ~domains () in
  let next = op_at ~n (rng opts 2) in
  (* One untimed search first, so neither half pays the process's
     warm-up and the overhead compares like with like. *)
  ignore (search ~domains env (next 0));
  let k, busy_u, _, _ =
    pass ~domains env t next ~budget_s:(opts.seconds /. 2.) ~max_ops:max_int
      ~on_op:(fun _ _ -> ())
  in
  let evals = ref 0 and nodes = ref 0 and locals = ref 0 and bbs = ref 0 in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 and rejected = ref 0 in
  let bytes = ref [] in
  let on_op o r =
    (match o.mode with
    | Local ->
        incr locals;
        evals := !evals + r.work
    | Bb ->
        incr bbs;
        nodes := !nodes + r.work);
    let c = r.cache in
    hits := !hits + c.Pcache.hits;
    misses := !misses + c.Pcache.misses;
    evictions := !evictions + c.Pcache.evictions;
    rejected := !rejected + c.Pcache.rejected;
    bytes := float_of_int c.Pcache.bytes :: !bytes
  in
  let steals0 = Amg_parallel.Pool.steals () and cpu0 = cpu_s () in
  Obs.enable ();
  let t0 = now () in
  let _, busy_t, _, _ = pass ~domains env t next ~budget_s:infinity ~max_ops:k ~on_op in
  let wall_t = now () -. t0 in
  Obs.disable ();
  let cpu = cpu_s () -. cpu0 in
  let steals = Amg_parallel.Pool.steals () - steals0 in
  let st = self_times () in
  let unattributed = print_ledger ~wall_s:wall_t st in
  (* One uncached canonical-order build and one rating, timed apart from
     the searches (median of 5). *)
  let steps0 = steps env (committed_widths n) in
  let med reps f =
    median
      (List.init 5 (fun _ ->
           let t0 = now () in
           for _ = 1 to reps do
             ignore (Sys.opaque_identity (f ()))
           done;
           (now () -. t0) /. float_of_int reps))
  in
  let obj = Optimize.apply env ~name:"pack" steps0 in
  let apply_s = med 1 (fun () -> Optimize.apply env ~name:"pack" steps0) in
  let rating_s = med 1000 (fun () -> rate env obj) in
  let fk = float_of_int k in
  let c name = float_of_int (Obs.counter name) in
  let pruned = c "optimize.bb_pruned" +. c "optimize.bb_pruned_by_bound" in
  [
    ("compact.busy_ms", get st.all "compact" *. 1000. /. fk);
    ("compact.pairs_considered", c "compact.pairs_considered" /. fk);
    ("compact.limits", c "compact.limits" /. fk);
    ("geometry.sindex_hit_ratio", c "sindex.hits" /. Float.max 1. (c "sindex.scanned"));
    ("core.optimize.evals", float_of_int !evals /. float_of_int (max 1 !locals));
    ("core.optimize.bb_nodes", float_of_int !nodes /. float_of_int (max 1 !bbs));
    ("core.optimize.bb_pruned_share", pruned /. Float.max 1. (pruned +. float_of_int !nodes));
    ("core.optimize.evals_per_s", float_of_int (!evals + !nodes) /. busy_t);
    ("core.apply_ms", apply_s *. 1000.);
    ("core.rating_ms", rating_s *. 1000.);
    ( "core.prefix_cache.hit_ratio",
      float_of_int !hits /. float_of_int (max 1 (!hits + !misses)) );
    ("core.prefix_cache.bytes", median !bytes /. 1048576.);
    ("core.prefix_cache.evictions", float_of_int !evictions /. fk);
    ("core.prefix_cache.rejected", float_of_int !rejected /. fk);
    ("parallel.busy_share", cpu /. (wall_t *. float_of_int domains));
    ("parallel.steals", float_of_int steals /. fk);
    ("unattributed_ms", unattributed *. 1000. /. fk);
    ("obs.overhead_share", (busy_t /. busy_u) -. 1.);
  ]
