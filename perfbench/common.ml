(* Shared machinery of the benchmark: timing, order statistics, the host
   fingerprint, the traced-run ledger and the result printer.

   Every layer is measured from outside: the benchmark times calls into
   the libraries' public functions (its own [Obs.span]s around them, all
   named "bench.*") and reads the counters the program already exposes.
   Nothing here adds a probe inside the libraries. *)

module Obs = Amg_obs.Obs

let now = Unix.gettimeofday

(* ---- options ------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  domains : int;  (** pool width for the parallel workloads: nproc *)
}

(* A seeded random stream per purpose, so adding a draw to one stream
   never shifts another. *)
let rng opts salt = Random.State.make [| opts.seed; salt |]

(* ---- order statistics --------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

(* Interquartile distance as a share of the median: the spread the
   benchmark reports next to every repeated measurement. *)
let iqr_share xs =
  let m = median xs in
  if List.length xs < 2 || m = 0. then 0.
  else (percentile 0.75 xs -. percentile 0.25 xs) /. m

let sum = List.fold_left ( +. ) 0.

(* Fisher-Yates, in place. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* CPU seconds (user + system) the whole process has used: every domain
   and thread. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- host and process --------------------------------------------------- *)

let nproc () =
  try
    let ic = Unix.open_process_in "nproc" in
    let n = int_of_string (String.trim (input_line ic)) in
    ignore (Unix.close_process_in ic);
    n
  with _ -> Domain.recommended_domain_count ()

(* The process's own high-water resident set (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
  in
  go ()

let host_line opts =
  Printf.sprintf
    "host: nproc=%d pool_recommended=%d ocaml=%s word=%d workload=%s seed=%d \
     seconds=%g trace=%b domains=%d"
    (nproc ())
    (Amg_parallel.Pool.recommended ())
    Sys.ocaml_version Sys.word_size opts.workload opts.seed opts.seconds
    opts.trace opts.domains

(* Every timed phase starts from a compacted heap, so garbage left by the
   previous phase (or by set-up) is not collected on its clock. *)
let settle () = Gc.compact ()

(* ---- operations and their outcomes -------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
      (** raised, non-zero status, or an output different from its
          reference *)
  mutable mismatches : int;  (** the subset of [failed] with a wrong output *)
  mutable notes : string list;  (** newest first; printed before the result *)
}

let tally () = { attempted = 0; failed = 0; mismatches = 0; notes = [] }

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

(* Count one operation: [Ok None] when its output matched the reference,
   [Ok (Some why)] on a mismatch, [Error why] when it raised or was
   refused.  The first few failures are kept as notes so a failing run
   says why.  Returns whether the operation succeeded. *)
let record t ~what result =
  t.attempted <- t.attempted + 1;
  let fail msg =
    t.failed <- t.failed + 1;
    if t.failed <= 5 then note t "FAIL %s: %s" what msg
  in
  match result with
  | Ok None -> true
  | Ok (Some msg) ->
      t.mismatches <- t.mismatches + 1;
      fail (msg ^ " (reference mismatch)");
      false
  | Error msg ->
      fail msg;
      false

(* ---- metrics and the final line ----------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The human-readable table: every metric by name with its unit. *)
let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun { name; value; unit_ } ->
      Printf.printf "  %-36s %16.6g %s\n" name value unit_)
    ms

(* The last line of standard output, read by tools.  Floats print as the
   shortest image that reads back to the same value: every digit
   measured. *)
let print_result t ms =
  let module J = Amg_robust.Diag.Json in
  let num n = J.Jnum (float_of_int n) in
  print_endline
    (J.to_string
       (J.Jobj
          [
            ("correct", J.Jbool (t.mismatches = 0));
            ("attempted", num t.attempted);
            ("failed", num t.failed);
            ( "metrics",
              J.Jobj
                (List.map
                   (fun { name; value; unit_ } ->
                     (name, J.Jobj [ ("value", J.Jnum value); ("unit", J.Jstr unit_) ]))
                   ms) );
          ]))

(* ---- the traced-run ledger ---------------------------------------------- *)

(* Self time per span name, summed over every strand of the merged Obs
   stream: a span's duration minus the part of it that its child spans
   (on the same strand) cover.  [root] is the same but restricted to the
   root strand — the caller's critical path — whose self times add up to
   the wall time of the spans it opened. *)
type self_times = {
  all : (string, float) Hashtbl.t;  (** seconds, every strand *)
  root : (string, float) Hashtbl.t;  (** seconds, tid 0 only *)
  root_total : float;  (** seconds covered by top-level spans on tid 0 *)
}

let self_times () =
  let all = Hashtbl.create 32 and root = Hashtbl.create 32 in
  let root_total = ref 0. in
  let stacks : (int, (string * float * float ref) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace stacks tid r;
        r
  in
  let add tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  List.iter
    (function
      | Obs.Begin { name; tid; ts } ->
          let st = stack tid in
          st := (name, ts, ref 0.) :: !st
      | Obs.End { tid; ts; _ } -> (
          let st = stack tid in
          match !st with
          | [] -> ()
          | (name, t0, children) :: rest ->
              st := rest;
              let dt = ts -. t0 in
              let self = dt -. !children in
              add all name self;
              if tid = 0 then add root name self;
              (match rest with
              | (_, _, parent_children) :: _ ->
                  parent_children := !parent_children +. dt
              | [] -> if tid = 0 then root_total := !root_total +. dt))
      | Obs.Mark _ -> ())
    (Obs.events ());
  { all; root; root_total = !root_total }

let get tbl k = Option.value ~default:0. (Hashtbl.find_opt tbl k)

(* Map a span name to the library layer that owns it; "bench.<layer>.*"
   spans are the benchmark's own timers around calls into <layer>. *)
let layer_of span =
  let s =
    if String.starts_with ~prefix:"bench." span then
      String.sub span 6 (String.length span - 6)
    else span
  in
  match String.index_opt s '.' with
  | None -> s
  | Some i -> String.sub s 0 i

(* Print the self-time table of one traced pass.  The root-strand table
   adds up to the pass's wall time with an [unattributed] row; the
   all-strands table shows where the pool's worker time went. *)
let print_ledger ~wall_s (st : self_times) =
  let by_layer tbl =
    let acc = Hashtbl.create 16 in
    Hashtbl.iter
      (fun k v ->
        let l = layer_of k in
        Hashtbl.replace acc l (v +. Option.value ~default:0. (Hashtbl.find_opt acc l)))
      tbl;
    Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  Printf.printf "ledger (critical path = root strand; self time)\n";
  Printf.printf "  %-28s %12s %8s\n" "layer" "self/ms" "share";
  let rows = by_layer st.root in
  List.iter
    (fun (l, v) ->
      Printf.printf "  %-28s %12.3f %7.1f%%\n" l (v *. 1000.)
        (100. *. v /. wall_s))
    rows;
  let unattributed = wall_s -. st.root_total in
  Printf.printf "  %-28s %12.3f %7.1f%%\n" "unattributed" (unattributed *. 1000.)
    (100. *. unattributed /. wall_s);
  Printf.printf "  %-28s %12.3f\n" "wall" (wall_s *. 1000.);
  Printf.printf "busy time (all strands, incl. pool workers; self time)\n";
  List.iter
    (fun (l, v) -> Printf.printf "  %-28s %12.3f\n" l (v *. 1000.))
    (by_layer st.all);
  unattributed

(* ---- the metric catalogue ----------------------------------------------- *)

(* Per-layer metrics, reported by every traced run (BENCHMARK.json
   "per_layer").  Times and counts are per operation of the traced pass;
   a layer the workload leaves idle reads 0. *)
let per_layer =
  [
    ("lang.parse_ms", "ms");
    ("lang.interp_self_ms", "ms");
    ("compact.busy_ms", "ms");
    ("compact.pairs_considered", "count");
    ("compact.limits", "count");
    ("geometry.sindex_hit_ratio", "ratio");
    ("drc.check_ms", "ms");
    ("drc.latchup_ms", "ms");
    ("drc.violations", "count");
    ("extract.busy_ms", "ms");
    ("layout.cif_ms", "ms");
    ("modules.gen_ms", "ms");
    ("core.optimize.evals", "count");
    ("core.optimize.bb_nodes", "count");
    ("core.optimize.bb_pruned_share", "ratio");
    ("core.optimize.evals_per_s", "1/s");
    ("core.apply_ms", "ms");
    ("core.rating_ms", "ms");
    ("core.prefix_cache.hit_ratio", "ratio");
    ("core.prefix_cache.bytes", "MiB");
    ("core.prefix_cache.evictions", "count");
    ("core.prefix_cache.rejected", "count");
    ("parallel.busy_share", "ratio");
    ("parallel.steals", "count");
    ("robust.wire.encode_us", "us");
    ("robust.wire.decode_us", "us");
    ("serve.server_ms_p50", "ms");
    ("serve.transport_ms_p50", "ms");
    ("serve.queue_ms_p50", "ms");
    ("serve.queue_ms_p99", "ms");
    ("serve.memo.hit_ratio", "ratio");
    ("serve.memo.evictions", "count");
    ("store.writes", "count");
    ("store.hit_ratio", "ratio");
    ("store.log_bytes", "KiB");
    ("sweep.instance_ms_p50_cold", "ms");
    ("sweep.instance_ms_p50_warm", "ms");
    ("unattributed_ms", "ms");
    ("obs.overhead_share", "ratio");
  ]

(* The full per-layer list from the subset a workload measured. *)
let layer_metrics measured =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k per_layer) then invalid_arg ("unknown layer metric " ^ k))
    measured;
  List.map
    (fun (k, u) -> m k u (Option.value ~default:0. (List.assoc_opt k measured)))
    per_layer

(* What an untraced run measured. *)
type e2e = {
  ops_per_s : float;
      (** operations that completed and matched their reference, per
          second: each workload says how it reads them *)
  window_rates : float list;
      (** the throughput of each window of like work the run was cut
          into *)
  lat_ms : float list;  (** per completed operation *)
  warm : (int * float) option;  (** sweep: warm instances and their seconds *)
}

(* The throughput of each window: the operations that completed in it
   over the seconds it took. *)
let rates windows =
  List.filter_map (fun (ops, s) -> if s > 0. then Some (float_of_int ops /. s) else None) windows

(* A run's throughput as a quantile over its windows of like work, not a
   whole-run mean: a burst of load the shared host puts on the run moves
   a mean, but not a quantile of windows. *)
let window_rate q windows = percentile q (rates windows)

(* The technology a fresh `amgen` process loads: the built-in deck,
   parsed from its source text on every call (the library's own
   [Env.bicmos] parses it once per process and caches it), so each set-up
   repetition pays the same tech load. *)
let fresh_env () =
  Amg_core.Env.create (Amg_tech.Tech_file.parse_string Amg_tech.Bicmos1u.source)

(* [setup_s]: the time from process start to the moment the workload is
   ready for its first timed operation — process start-up, tech load,
   parsing, daemon start, store open and priming.  Measured on fresh
   processes: the benchmark runs itself with [--setup-only], which sets
   the workload up, prints "ready" and exits.  Repeated until the
   repetitions add up to 0.2 s (at least 3, at most 200); the caller
   reports the median. *)
let setup_times opts =
  let args =
    [|
      Sys.executable_name; "--workload"; opts.workload; "--seed"; string_of_int opts.seed;
      "--seconds"; "1"; "--trace"; "0"; "--setup-only";
    |]
  in
  let once () =
    let r, w = Unix.pipe ~cloexec:true () in
    let t0 = now () in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let line = try Some (input_line ic) with End_of_file -> None in
    let dt = now () -. t0 in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    match (line, status) with
    | Some "ready", Unix.WEXITED 0 -> dt
    | _ -> failwith "set-up in a fresh process failed"
  in
  let rec go acc =
    let acc = once () :: acc in
    let n = List.length acc in
    if n >= 3 && (n >= 200 || sum acc >= 0.2) then List.rev acc else go acc
  in
  go []

let protect f = try Ok (f ()) with e -> Error (Printexc.to_string e)
