(* The generator benchmark.

     main.exe --workload build|search|serve|sweep --seed N --seconds S
              --trace 0|1 [--pack-n N]

   An untraced run (--trace 0) prints the end-to-end metrics; a traced
   run (--trace 1) prints the per-layer metrics, the self-time ledger and
   the tracing overhead.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  Exit code 0
   when the run completed, whatever it measured; 2 on bad arguments.
   See perfbench/README.md for the workloads and the metric catalogue. *)

open Common

let usage () =
  prerr_endline
    "usage: main.exe --workload build|search|serve|sweep --seed N --seconds S \
     --trace 0|1 [--pack-n N]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and pack_n = ref 12 and setup_only = ref false in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest ->
        workload := w;
        go rest
    | "--seed" :: n :: rest ->
        seed := Some (int_arg n);
        go rest
    | "--seconds" :: s :: rest ->
        seconds :=
          Some (match float_of_string_opt s with Some f when f > 0. -> f | _ -> usage ());
        go rest
    | "--trace" :: ("0" | "1" as b) :: rest ->
        trace := Some (b = "1");
        go rest
    | "--pack-n" :: n :: rest ->
        pack_n := int_arg n;
        go rest
    | "--setup-only" :: rest ->
        setup_only := true;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload [ "build"; "search"; "serve"; "sweep" ] ->
      ( { workload = !workload; seed; seconds; trace; domains = nproc () },
        !pack_n,
        !setup_only )
  | _ -> usage ()

let () =
  let opts, pack_n, setup_only = parse_args () in
  let setup, e2e, traced =
    match opts.workload with
    | "build" -> (W_build.setup_only, W_build.e2e, W_build.traced)
    | "search" -> (W_search.setup_only, W_search.e2e ~n:pack_n, W_search.traced ~n:pack_n)
    | "serve" -> (W_serve.setup_only, W_serve.e2e, W_serve.traced)
    | _ -> (W_sweep.setup_only, W_sweep.e2e, W_sweep.traced)
  in
  if setup_only then begin
    let teardown = setup opts in
    print_string "ready\n";
    flush stdout;
    teardown ();
    exit 0
  end;
  print_endline (host_line opts);
  let t = tally () in
  let metrics =
    if opts.trace then begin
      let ms = layer_metrics (traced opts t) in
      print_metrics "per-layer metrics (traced run; per operation)" ms;
      ms
    end
    else begin
      let setups = setup_times opts in
      let r = e2e opts t in
      let e2e_ms =
        [
          m "setup_s" "s" (median setups);
          m "ops_per_s" "1/s" r.ops_per_s;
          m "peak_rss_mb" "MiB" (peak_rss_mb ());
        ]
      in
      let n = List.length r.lat_ms in
      let p99 = percentile 0.99 r.lat_ms in
      (* Latency percentiles only where a run has thousands of operations;
         search and sweep runs have tens, of mixed cost. *)
      let latency =
        if not (List.mem opts.workload [ "build"; "serve" ]) then []
        else
          [
            m "latency_p50_ms" "ms" (percentile 0.5 r.lat_ms);
            m "latency_p99_ms" "ms" p99;
            m "latency_samples" "count" (float_of_int n);
            m "latency_samples_beyond_p99" "count"
              (float_of_int (List.length (List.filter (fun x -> x > p99) r.lat_ms)));
            m "latency_spread" "ratio" (iqr_share r.lat_ms);
          ]
      in
      let extra =
        m "failed_share" "ratio" (float_of_int t.failed /. float_of_int (max 1 t.attempted))
        :: latency
        @ [
            m "ops_windows" "count" (float_of_int (List.length r.window_rates));
            m "ops_per_s_window_spread" "ratio" (iqr_share r.window_rates);
            m "setup_repetitions" "count" (float_of_int (List.length setups));
            m "setup_s_spread" "ratio" (iqr_share setups);
          ]
        @
        match r.warm with
        | Some (k, s) -> [ m "warm_ops_per_s" "1/s" (if k = 0 then 0. else float_of_int k /. s) ]
        | None -> []
      in
      print_metrics "end-to-end metrics (untraced run)" (e2e_ms @ extra);
      e2e_ms
    end
  in
  List.iter print_endline (List.rev t.notes);
  print_result t metrics
