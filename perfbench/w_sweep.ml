(* Workload "sweep": a cold [Sweep.run] over a two-parameter (W, L) grid
   of the language pack entity, in local mode on [domains] = nproc, split
   into sub-grid calls that all write one fresh result store; then a warm
   re-sweep of every sub-grid call that completed, which the store
   answers.

   Why: the only workload that uses lib/sweep scheduling, and parallel
   across instances rather than inside one search.  The cold pass
   exercises store writes (append and fsync), the warm pass store reads
   and replay; without it the sweep and store layers go unmeasured.

   A sub-grid call that raises counts all of its instances as failed, and
   the remaining calls still run.  (At this commit [Sweep.run] with a
   store on two domains can die with [CamlinternalLazy.Undefined] when
   both pool domains force the same lazy value; the benchmark shows that
   in its failed count rather than working around it.) *)

open Common
module Env = Amg_core.Env
module Sweep = Amg_sweep.Sweep
module Store = Amg_store.Store
module Pcache = Amg_core.Prefix_cache

(* Rows of the pack entity: the language twin of the search workload's
   pack, with the contact-row length as a second parameter. *)
let rows = 4

let source =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "ENT SweepPack(<W>, <L>)\n");
  for i = 0 to rows - 1 do
    let w = match i mod 4 * 12 with 0 -> "W" | off -> Printf.sprintf "W + %d" off in
    Buffer.add_string b
      (Printf.sprintf
         "  x%d = ContactRow(layer = \"metal1\", W = %s, L = L, net = \"n%d\")\n"
         i w i);
    Buffer.add_string b
      (Printf.sprintf "  compact(x%d, %s, align = \"MIN\")\n" i
         (if i mod 2 = 0 then "SOUTH" else "WEST"))
  done;
  Buffer.contents b ^ Amg_lang.Stdlib.all

(* One sub-grid call covers [sub_w] x [sub_l] grid points, scheduled in
   chunks so that every domain gets work.  Calls walk the [w_blocks] x
   [l_blocks] sub-grids of one W x L region (W in steps of 4 um, L in steps
   of 1 um), so instance sizes stay in the same range however many calls
   a run makes.  The seed picks the region's origin. *)
let sub_w = 2
let sub_l = 1
let w_blocks = 8
let l_blocks = 16

let spec ~w0 ~l0 k =
  let wa = w0 + (k mod w_blocks * sub_w * 4) and la = l0 + (k / w_blocks mod l_blocks * sub_l) in
  Sweep.parse_spec
    (Printf.sprintf
       "{ \"entity\": \"SweepPack\", \"params\": { \"W\": { \"from\": %d, \
        \"to\": %d, \"step\": 4 }, \"L\": { \"from\": %d, \"to\": %d, \"step\": \
        1 } }, \"optimize\": \"local\" }"
       wa
       (wa + ((sub_w - 1) * 4))
       la
       (la + sub_l - 1))

let instances_per_call = sub_w * sub_l

let chunk ~domains = max 1 (instances_per_call / domains)

type ctx = {
  env : Env.t;
  store : Store.t;
  store_path : string;
  cache : Pcache.t;
  w0 : int;
  l0 : int;
}

let run_dir = ".perfbench"

(* A fresh store and a fresh prefix cache, as one `amgen sweep --store`
   process over a new store file has. *)
let setup ~domains opts () =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let env = fresh_env () in
  Amg_parallel.Pool.warm ~domains ();
  let store_path = Printf.sprintf "%s/sweep%d.store" run_dir (Unix.getpid ()) in
  (try Sys.remove store_path with Sys_error _ -> ());
  let store, _ = Store.open_ store_path in
  let st = rng opts 5 in
  let w0 = 20 + (4 * Random.State.int st 5) and l0 = 4 + Random.State.int st 5 in
  { env; store; store_path; cache = Pcache.create (); w0; l0 }

let teardown ctx =
  Store.close ctx.store;
  try Sys.remove ctx.store_path with Sys_error _ -> ()

(* One sub-grid call: its output lines and wall time, or the exception
   it raised. *)
let call ~domains ctx k =
  let lines = ref [] in
  let t0 = now () in
  match
    Obs.span "bench.sweep.run" (fun () ->
        Sweep.run ~domains ~chunk:(chunk ~domains) ~cache:ctx.cache ~store:ctx.store
          ~on_line:(fun l -> lines := l :: !lines)
          ~env:ctx.env ~source (spec ~w0:ctx.w0 ~l0:ctx.l0 k))
  with
  | r -> Ok (r, List.rev !lines, now () -. t0)
  | exception e -> Error (Printexc.to_string e, now () -. t0)

let status_column = 1 + 2 (* entity, L, W *)

(* Count the instances of one call: every row must be "ok" and, on the
   warm pass, byte-identical to the cold pass's row. *)
let tally_call t ~what ?cold outcome =
  let each i verdict = ignore (record t ~what:(Printf.sprintf "%s instance %d" what i) verdict) in
  match outcome with
  | Error (e, _) ->
      for i = 0 to instances_per_call - 1 do
        each i (Error e)
      done;
      false
  | Ok (_, lines, _) ->
      let rows = match lines with _ :: _ :: rows -> rows | _ -> [] in
      let ok = ref (List.length rows = instances_per_call) in
      if not !ok then each 0 (Ok (Some (Printf.sprintf "%d rows" (List.length rows))));
      List.iteri
        (fun i row ->
          let status = List.nth (String.split_on_char ',' row) status_column in
          let verdict =
            if status <> "ok" then Error ("row status " ^ status)
            else
              match cold with
              | Some cold_lines when List.nth_opt cold_lines (i + 2) <> Some row ->
                  Ok (Some "warm row differs from the cold row")
              | _ -> Ok None
          in
          (match verdict with Ok None -> () | _ -> ok := false);
          each i verdict)
        rows;
      !ok

(* Exceptions raised by sub-grid calls, with their counts. *)
let exceptions : (string, int) Hashtbl.t = Hashtbl.create 4

type pass = {
  cold : (int * float) list;  (** completed calls: index, seconds *)
  warm : float list;  (** seconds per completed warm call *)
  calls : int;  (** cold calls made *)
  warm_calls : int;
  wall : float;
}

(* Cold sub-grid calls until [cold_s] has passed (or [max_calls] are
   made), then warm re-sweeps cycling over the completed calls until
   [warm_s] has passed, at least one full cycle (or exactly [max_warm]). *)
let pass ~domains ctx t ~cold_s ~warm_s ~max_calls ~max_warm =
  settle ();
  let raised = function
    | Error (e, _) ->
        Hashtbl.replace exceptions e (1 + Option.value ~default:0 (Hashtbl.find_opt exceptions e))
    | Ok _ -> ()
  in
  let t0 = now () in
  let completed = ref [] and lines = Hashtbl.create 16 in
  let k = ref 0 in
  while !k < min max_calls (w_blocks * l_blocks) && now () -. t0 < cold_s do
    let what = Printf.sprintf "cold sub-grid %d" !k in
    let r = call ~domains ctx !k in
    if tally_call t ~what r then begin
      match r with
      | Ok (_, l, dt) ->
          completed := (!k, dt) :: !completed;
          Hashtbl.replace lines !k l
      | Error _ -> ()
    end
    else raised r;
    incr k
  done;
  let cold = List.rev !completed in
  let targets = Array.of_list (List.map fst cold) in
  let warm = ref [] and j = ref 0 in
  let t1 = now () in
  if Array.length targets > 0 then
    while
      !j < max_warm
      && (now () -. t1 < warm_s || (max_warm = max_int && !j < Array.length targets))
    do
      let c = targets.(!j mod Array.length targets) in
      let what = Printf.sprintf "warm sub-grid %d" c in
      let r = call ~domains ctx c in
      let cold_lines = Hashtbl.find lines c in
      (match r with
      | Ok ({ Sweep.store_hits; rows; _ }, _, _) when store_hits <> rows ->
          ignore (record t ~what (Ok (Some (Printf.sprintf "%d of %d rows from the store" store_hits rows))))
      | _ ->
          if tally_call t ~what ~cold:cold_lines r then
            match r with Ok (_, _, dt) -> warm := dt :: !warm | Error _ -> ()
          else raised r);
      incr j
    done;
  { cold; warm = List.rev !warm; calls = !k; warm_calls = !j; wall = now () -. t0 }

let setup_only opts =
  let ctx = setup ~domains:opts.domains opts () in
  fun () -> teardown ctx

let e2e opts t =
  let domains = opts.domains in
  let ctx = setup ~domains opts () in
  let p =
    pass ~domains ctx t ~cold_s:(0.75 *. opts.seconds) ~warm_s:(0.25 *. opts.seconds)
      ~max_calls:max_int ~max_warm:max_int
  in
  teardown ctx;
  let per_instance s = s *. 1000. /. float_of_int instances_per_call in
  (* One window per completed cold call. *)
  let windows = List.map (fun (_, s) -> (instances_per_call, s)) p.cold in
  let n_cold = List.length p.cold and n_warm = List.length p.warm in
  note t "sweep: %d of %d cold sub-grid calls and %d of %d warm calls completed%s" n_cold
    p.calls n_warm p.warm_calls
    (String.concat ""
       (Hashtbl.fold (fun e k acc -> Printf.sprintf "; %d raised %s" k e :: acc) exceptions []));
  {
    ops_per_s = window_rate 0.5 windows;
    window_rates = rates windows;
    lat_ms = List.map (fun (_, s) -> per_instance s) p.cold;
    warm = Some (n_warm * instances_per_call, sum p.warm);
  }

let traced opts t =
  let domains = opts.domains in
  let half = opts.seconds /. 2. in
  let ctx = setup ~domains opts () in
  let pu =
    pass ~domains ctx t ~cold_s:(0.75 *. half) ~warm_s:(0.25 *. half) ~max_calls:max_int
      ~max_warm:max_int
  in
  teardown ctx;
  let ctx = setup ~domains opts () in
  let steals0 = Amg_parallel.Pool.steals () and cpu0 = cpu_s () in
  Obs.enable ();
  let pt =
    pass ~domains ctx t ~cold_s:infinity ~warm_s:infinity ~max_calls:pu.calls
      ~max_warm:pu.warm_calls
  in
  Obs.disable ();
  let cpu = cpu_s () -. cpu0 in
  let steals = Amg_parallel.Pool.steals () - steals0 in
  let cs = Pcache.stats ctx.cache and ss = Store.stats ctx.store in
  teardown ctx;
  let st = self_times () in
  let unattributed = print_ledger ~wall_s:pt.wall st in
  let n = float_of_int (pt.calls * instances_per_call) in
  let per_op x = x /. n in
  let c k = float_of_int (Obs.counter k) in
  let per_instance s = s *. 1000. /. float_of_int instances_per_call in
  let cold_s = sum (List.map snd pt.cold) in
  [
    ("compact.busy_ms", per_op (get st.all "compact" *. 1000.));
    ("compact.pairs_considered", per_op (c "compact.pairs_considered"));
    ("compact.limits", per_op (c "compact.limits"));
    ("geometry.sindex_hit_ratio", c "sindex.hits" /. Float.max 1. (c "sindex.scanned"));
    ("core.optimize.evals", per_op (c "optimize.local_evals"));
    ("core.optimize.evals_per_s", c "optimize.local_evals" /. Float.max 1e-9 cold_s);
    ( "core.prefix_cache.hit_ratio",
      float_of_int cs.Pcache.hits /. float_of_int (max 1 (cs.Pcache.hits + cs.Pcache.misses)) );
    ("core.prefix_cache.bytes", float_of_int cs.Pcache.bytes /. 1048576.);
    ("core.prefix_cache.evictions", per_op (float_of_int cs.Pcache.evictions));
    ("core.prefix_cache.rejected", per_op (float_of_int cs.Pcache.rejected));
    ("parallel.busy_share", cpu /. (pt.wall *. float_of_int domains));
    ("parallel.steals", per_op (float_of_int steals));
    ("store.writes", per_op (float_of_int ss.Store.writes));
    ( "store.hit_ratio",
      float_of_int ss.Store.hits /. float_of_int (max 1 (ss.Store.hits + ss.Store.misses)) );
    ("store.log_bytes", float_of_int ss.Store.log_bytes /. 1024.);
    ("sweep.instance_ms_p50_cold", median (List.map (fun (_, s) -> per_instance s) pt.cold));
    ("sweep.instance_ms_p50_warm", median (List.map per_instance pt.warm));
    ("unattributed_ms", per_op (unattributed *. 1000.));
    ("obs.overhead_share", (pt.wall /. pu.wall) -. 1.);
  ]
