(* Workload "serve": an in-process daemon ([Server.start], with a result
   store) driven by two closed-loop connections — closed because its real
   callers (`amgen request`, [Client]) wait for each reply.  The seeded mix:
   about 70 % plain builds over a key set twice the recorded-build memo's
   128 signatures, so memo hits (reads) sit beside misses that build,
   insert and evict (writes); about 20 % optimized Pack8 repeats over four
   keys primed during set-up, which exercise the best-result memo; about
   10 % pings.

   Why: the robust.wire codec, connection threads, the admission queue,
   the memo LRUs and CIF encoding do the work, and no cold search runs.
   Folding codecs, LRUs or memo tiers must hold this workload steady. *)

open Common
module Env = Amg_core.Env
module Wire = Amg_robust.Wire
module J = Amg_robust.Diag.Json
module Server = Amg_serve.Server
module Client = Amg_serve.Client
module Value = Amg_lang.Value

let clients = 2
let memo_signatures = 128
let pack_rows = 8

(* The language pack of the search workload, as the daemon's library
   entity "Pack8" (widths cycle W, W+12, W+24, W+36). *)
let source =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "ENT Pack%d(<W>)\n" pack_rows);
  for i = 0 to pack_rows - 1 do
    let w = match i mod 4 * 12 with 0 -> "W" | off -> Printf.sprintf "W + %d" off in
    Buffer.add_string b
      (Printf.sprintf
         "  x%d = ContactRow(layer = \"metal1\", W = %s, L = 6, net = \"n%d\")\n" i w i);
    Buffer.add_string b
      (Printf.sprintf "  compact(x%d, %s, align = \"MIN\")\n" i
         (if i mod 2 = 0 then "SOUTH" else "WEST"))
  done;
  Buffer.contents b ^ Amg_lang.Stdlib.all

type key = { entity : string; params : (string * float) list; optimize : bool }

let key_name k =
  Printf.sprintf "%s%s(%s)" k.entity
    (if k.optimize then "/local" else "")
    (String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%s=%g" p v) k.params))

(* Twice the memo's signatures, drawn by the seed from DiffPair and Trans
   over W 4..27 and L 2..9. *)
let plain_keys opts =
  let all =
    List.concat_map
      (fun entity ->
        List.concat_map
          (fun w ->
            List.init 8 (fun l ->
                { entity; params = [ ("L", float_of_int (l + 2)); ("W", float_of_int w) ]; optimize = false }))
          (List.init 24 (fun w -> w + 4)))
      [ "DiffPair"; "Trans" ]
  in
  let a = Array.of_list all in
  shuffle (rng opts 3) a;
  Array.sub a 0 (2 * memo_signatures)

(* The optimized keys are the same for every seed (the seed orders the
   requests), so the memory the primed searches leave resident does not
   depend on the seed. *)
let pack_keys =
  Array.init 4 (fun i ->
      { entity = Printf.sprintf "Pack%d" pack_rows; params = [ ("W", float_of_int (20 + (8 * i))) ]; optimize = true })

(* Requests ask for one domain.  After priming no request in the mix runs
   a search, and a second, parked domain would only add stop-the-world
   synchronisation to every minor collection of the daemon's threads,
   which made throughput swing by a quarter from run to run. *)
let jobs = 1

let request ~id k =
  Wire.build ~id ~jobs ~format:Wire.Cif
    ?optimize:(if k.optimize then Some Wire.Local else None)
    ~params:(List.map (fun (p, v) -> (p, Wire.Pnum v)) k.params)
    k.entity

type ctx = {
  server : Server.t;
  socket : string;
  store : string;
  plain : key array;
  packs : key array;
  reference : (string, string) Hashtbl.t;  (** key name -> CIF digest *)
}

let run_dir = ".perfbench"

(* Start the daemon on a fresh store, record the reference digest of
   every plain key — built in-process, outside the daemon — and prime
   the optimized keys (their first served answer is their reference). *)
let setup ?access_log opts () =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let pid = Unix.getpid () in
  let socket = Printf.sprintf "%s/s%d.sock" run_dir pid in
  let store = Printf.sprintf "%s/serve%d.store" run_dir pid in
  (try Sys.remove store with Sys_error _ -> ());
  let env = fresh_env () in
  let server =
    Server.start
      (Server.config ~source ~tech:(Env.tech env) ~store ~default_jobs:jobs ?access_log
         socket)
  in
  let reference = Hashtbl.create 512 in
  let program = Amg_lang.Parser.parse_program source in
  let plain = plain_keys opts and packs = pack_keys in
  Array.iter
    (fun k ->
      let obj =
        Amg_lang.Interp.build env program k.entity
          (List.map (fun (p, v) -> (p, Value.Num v)) k.params)
      in
      Hashtbl.replace reference (key_name k)
        (Digest.string (Amg_layout.Cif.of_lobj ~tech:(Env.tech env) obj)))
    plain;
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      Array.iteri
        (fun i k ->
          match Client.roundtrip c (request ~id:(Printf.sprintf "prime%d" i) k) with
          | Ok { Wire.status = 0; payload = Some p; _ } ->
              Hashtbl.replace reference (key_name k) (Digest.string p)
          | Ok r -> failwith (Printf.sprintf "priming %s: status %d" (key_name k) r.Wire.status)
          | Error e -> failwith ("priming " ^ key_name k ^ ": " ^ e))
        packs);
  { server; socket; store; plain; packs; reference }

let teardown ctx =
  Server.stop ctx.server;
  try Sys.remove ctx.store with Sys_error _ -> ()

type sample = {
  id : string;
  lat_ms : float;
  encode_us : float;
  decode_us : float;
}

(* The completed exchanges of one connection, [fields] floats each: the
   request's number on its connection, its latency (ms), its completion
   (s since the loop started), and its encode and decode times (us).
   Flat floats in fixed-size chunks: a record per exchange made the
   process's peak RSS grow with the throughput the host allowed, by
   about 30 MiB per 90 000 exchanges. *)
let fields = 5
let chunk = 4096 * fields

type log = { mutable full : Float.Array.t list; mutable cur : Float.Array.t; mutable len : int }

let new_log () = { full = []; cur = Float.Array.create chunk; len = 0 }

let push l k lat done_s encode decode =
  if l.len = chunk then begin
    l.full <- l.cur :: l.full;
    l.cur <- Float.Array.create chunk;
    l.len <- 0
  end;
  let set j v = Float.Array.set l.cur (l.len + j) v in
  set 0 k;
  set 1 lat;
  set 2 done_s;
  set 3 encode;
  set 4 decode;
  l.len <- l.len + fields

(* [f acc k lat done_s encode decode] over the exchanges of [l], oldest
   first. *)
let fold f acc l =
  let over acc a n =
    let acc = ref acc in
    for i = 0 to (n / fields) - 1 do
      let g j = Float.Array.get a ((i * fields) + j) in
      acc := f !acc (g 0) (g 1) (g 2) (g 3) (g 4)
    done;
    !acc
  in
  over (List.fold_left (fun acc a -> over acc a chunk) acc (List.rev l.full)) l.cur l.len

(* The exchanges of a loop as records, for the traced run's join with
   the access log. *)
let samples ~tag logs =
  List.concat
    (List.mapi
       (fun i l ->
         fold
           (fun acc k lat _ encode_us decode_us ->
             { id = Printf.sprintf "%s%d-%d" tag i (int_of_float k); lat_ms = lat; encode_us; decode_us }
             :: acc)
           [] l)
       (Array.to_list logs))

(* Run the closed loop for [seconds]; every exchange is checked against
   the reference digest of its key.  Returns each connection's completed
   exchanges and the loop's wall time. *)
let loop opts t ctx ~seconds ~tag =
  let lock = Mutex.create () in
  let logs = Array.init clients (fun _ -> new_log ()) in
  let start = now () in
  let stop_at = start +. seconds in
  let worker i =
    let st = rng opts (10 + i) in
    let c = Client.connect ctx.socket in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let k = ref 0 in
    while now () < stop_at do
      let id = Printf.sprintf "%s%d-%d" tag i !k in
      incr k;
      let x = Random.State.float st 1. in
      let key =
        if x < 0.7 then Some ctx.plain.(Random.State.int st (Array.length ctx.plain))
        else if x < 0.9 then Some ctx.packs.(Random.State.int st (Array.length ctx.packs))
        else None
      in
      let req =
        match key with
        | Some k -> request ~id k
        | None -> Wire.ping ~id ()
      in
      let what = match key with Some k -> key_name k | None -> "ping" in
      let t0 = now () in
      let line = Wire.encode_request req in
      let t1 = now () in
      let verdict, t2, t3 =
        match
          Client.send_line c line;
          Client.recv_line c
        with
        | exception e -> (Error (Printexc.to_string e), now (), now ())
        | None -> (Error "connection closed", now (), now ())
        | Some reply -> (
            let t2 = now () in
            let resp = Wire.decode_response reply in
            let t3 = now () in
            match resp with
            | Error e -> (Error ("undecodable reply: " ^ e), t2, t3)
            | Ok r when r.Wire.status <> Wire.status_ok ->
                (Error (Printf.sprintf "status %d" r.Wire.status), t2, t3)
            | Ok r -> (
                match key with
                | None -> (Ok None, t2, t3)
                | Some k -> (
                    match r.Wire.payload with
                    | None -> (Ok (Some "no CIF payload"), t2, t3)
                    | Some p ->
                        if Digest.string p = Hashtbl.find ctx.reference (key_name k) then
                          (Ok None, t2, t3)
                        else (Ok (Some "CIF differs from the reference digest"), t2, t3))))
      in
      Mutex.lock lock;
      let ok = record t ~what verdict in
      Mutex.unlock lock;
      if ok then
        push logs.(i)
          (float_of_int (!k - 1))
          ((t3 -. t0) *. 1000.)
          (t3 -. start)
          ((t1 -. t0) *. 1e6)
          ((t3 -. t2) *. 1e6)
    done
  in
  let threads = List.init clients (Thread.create worker) in
  List.iter Thread.join threads;
  (logs, now () -. start)

(* The windows of a loop: every [window_ops] consecutive completions, in
   the order they completed across both connections, with the seconds
   from the completion before the window to its last one.  The loop's
   last, partial window is left out. *)
let window_ops = 500

let windows logs =
  let done_s =
    Array.of_list
      (Array.fold_left (fold (fun acc _ _ d _ _ -> d :: acc)) [] logs)
  in
  Array.sort compare done_s;
  List.init
    ((Array.length done_s - 1) / window_ops)
    (fun w ->
      let i = w * window_ops in
      (window_ops, done_s.(i + window_ops) -. done_s.(i)))

let setup_only opts =
  let ctx = setup opts () in
  fun () -> teardown ctx

let e2e opts t =
  let ctx = setup opts () in
  settle ();
  let logs, _ = loop opts t ctx ~seconds:opts.seconds ~tag:"c" in
  teardown ctx;
  let windows = windows logs in
  {
    ops_per_s = window_rate 0.5 windows;
    window_rates = rates windows;
    lat_ms = Array.fold_left (fold (fun acc _ lat _ _ _ -> lat :: acc)) [] logs;
    warm = None;
  }

(* A scrape over the wire: counter values by name (labels summed). *)
let scrape ctx =
  let c = Client.connect ctx.socket in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.roundtrip c (Wire.metrics ~json:true ()) with
  | Ok { Wire.payload = Some p; _ } -> (
      match J.of_string p with
      | Ok j -> (
          match J.member "metrics" j with
          | Some (J.Jarr ms) ->
              List.fold_left
                (fun acc s ->
                  match (Option.bind (J.member "name" s) J.str, Option.bind (J.member "value" s) J.num) with
                  | Some n, Some v ->
                      (n, v +. Option.value ~default:0. (List.assoc_opt n acc))
                      :: List.remove_assoc n acc
                  | _ -> acc)
                [] ms
          | _ -> [])
      | Error _ -> [])
  | _ -> []

let read_access_log path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | exception End_of_file -> acc
    | l -> (
        match J.of_string l with
        | Ok j -> go (j :: acc)
        | Error _ -> go acc)
  in
  go []

let traced opts t =
  (* Untraced half: a daemon without instrumentation. *)
  let ctx = setup opts () in
  settle ();
  let l_u, wall_u = loop opts t ctx ~seconds:(opts.seconds /. 2.) ~tag:"u" in
  let s_u = samples ~tag:"u" l_u in
  teardown ctx;
  (* Traced half: a fresh daemon with the access log, and Obs on. *)
  let access = Printf.sprintf "%s/access%d.log" run_dir (Unix.getpid ()) in
  (try Sys.remove access with Sys_error _ -> ());
  let ctx = setup ~access_log:access opts () in
  (* The access log arms Obs inside the daemon; restart recording here so
     set-up's builds are left out. *)
  Obs.enable ();
  let before = scrape ctx in
  settle ();
  let l_t, wall_t = loop opts t ctx ~seconds:(opts.seconds /. 2.) ~tag:"t" in
  let s_t = samples ~tag:"t" l_t in
  let after = scrape ctx in
  teardown ctx;
  Obs.disable ();
  let delta n =
    Option.value ~default:0. (List.assoc_opt n after)
    -. Option.value ~default:0. (List.assoc_opt n before)
  in
  let log =
    List.filter
      (fun j ->
        match Option.bind (J.member "id" j) J.str with
        | Some id -> String.length id > 0 && id.[0] = 't'
        | None -> false)
      (read_access_log access)
  in
  (try Sys.remove access with Sys_error _ -> ());
  let field f j = Option.value ~default:0. (Option.bind (J.member f j) J.num) in
  let server = Hashtbl.create 4096 in
  List.iter
    (fun j ->
      match Option.bind (J.member "id" j) J.str with
      | Some id -> Hashtbl.replace server id (field "latency_ms" j, field "queue_ms" j)
      | None -> ())
    log;
  let transport =
    List.filter_map
      (fun s ->
        Option.map
          (fun (srv, _) -> s.lat_ms -. srv -. ((s.encode_us +. s.decode_us) /. 1000.))
          (Hashtbl.find_opt server s.id))
      s_t
  in
  let server_ms = List.map (field "latency_ms") log and queue_ms = List.map (field "queue_ms") log in
  let n = float_of_int (max 1 (List.length s_t)) in
  let st = self_times () in
  let compute =
    match List.assoc_opt "serve.request" (Obs.spans ()) with Some s -> s.Obs.total_s | None -> 0.
  in
  ignore (print_ledger ~wall_s:wall_t st);
  (* Server-side time outside the queue and the compute span: admission,
     response encoding and the access-log write. *)
  let unattributed = sum server_ms -. sum queue_ms -. (compute *. 1000.) in
  let mean xs = sum xs /. float_of_int (max 1 (List.length xs)) in
  Printf.printf "request path (traced, mean per request)\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-28s %12.4f ms\n" k v)
    [
      ("robust.wire encode", mean (List.map (fun s -> s.encode_us /. 1000.) s_t));
      ("transport", mean transport);
      ("serve queue", mean queue_ms);
      ("serve compute span", compute *. 1000. /. float_of_int (max 1 (List.length log)));
      ("serve, outside queue and span", unattributed /. float_of_int (max 1 (List.length log)));
      ("robust.wire decode", mean (List.map (fun s -> s.decode_us /. 1000.) s_t));
      ("client latency", mean (List.map (fun s -> s.lat_ms) s_t));
    ];
  let hits = delta "serve.memo.hits" and misses = delta "serve.memo.misses" in
  let per_op x = x /. n in
  let c k = float_of_int (Obs.counter k) in
  [
    ("compact.busy_ms", per_op (get st.all "compact" *. 1000.));
    ("compact.pairs_considered", per_op (c "compact.pairs_considered"));
    ("compact.limits", per_op (c "compact.limits"));
    ("geometry.sindex_hit_ratio", c "sindex.hits" /. Float.max 1. (c "sindex.scanned"));
    ("robust.wire.encode_us", per_op (sum (List.map (fun s -> s.encode_us) s_t)));
    ("robust.wire.decode_us", per_op (sum (List.map (fun s -> s.decode_us) s_t)));
    ("serve.server_ms_p50", median server_ms);
    ("serve.transport_ms_p50", median transport);
    ("serve.queue_ms_p50", median queue_ms);
    ("serve.queue_ms_p99", percentile 0.99 queue_ms);
    ("serve.memo.hit_ratio", hits /. Float.max 1. (hits +. misses));
    ("serve.memo.evictions", per_op (delta "serve.memo.evictions"));
    ("store.writes", per_op (delta "store.writes"));
    ("store.hit_ratio", delta "store.hits" /. Float.max 1. (delta "store.hits" +. delta "store.misses"));
    ("unattributed_ms", per_op unattributed);
    ( "obs.overhead_share",
      (float_of_int (List.length s_u) /. wall_u) /. (float_of_int (List.length s_t) /. wall_t) -. 1. );
  ]
