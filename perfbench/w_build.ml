(* Workload "build": a single-threaded, seeded stream of one-shot builds,
   each the full `amgen build` path on one item — parse, interpret (with
   successive compaction), DRC including latch-up, device extraction and
   CIF.  Items are entities of examples/modules.amg with seeded sizes,
   the four golden showcase modules at their golden parameters (module E
   among them) and, at a small fixed share, the full amplifier.

   Why: this is the user's build and `amp` path; lang, compact, drc,
   extract and layout do all the work, while the optimizer, the prefix
   cache, the pool, the daemon and the store stay idle. *)

open Common
module Env = Amg_core.Env
module Lobj = Amg_layout.Lobj
module Value = Amg_lang.Value
module Checker = Amg_drc.Checker
module Devices = Amg_extract.Devices
module M = Amg_modules
module Units = Amg_geometry.Units

let um = Units.of_um

type item =
  | Lang of {
      entity : string;
      params : (string * Value.t) list;
      mos : int;  (** MOS devices extraction must find *)
      latch : int;  (** latch-up findings the checker must report *)
    }  (** an entity of the module library *)
  | Golden of string  (** a showcase generator, checked byte-for-byte *)
  | Amp

let item_name = function
  | Lang { entity; params; _ } ->
      Printf.sprintf "%s(%s)" entity
        (String.concat ","
           (List.map (fun (k, v) -> Fmt.str "%s=%a" k Value.pp v) params))
  | Golden g -> g
  | Amp -> "amplifier"

(* Heavy items sit at fixed positions, so every seed carries the same
   share of them: one item in [amp_every] is the amplifier, and one in
   [golden_every] is a golden module, cycling through the four (so one
   in 4 * [golden_every] is module E).  The seed draws everything else. *)
let amp_every = 64
let golden_every = 16

(* The golden generators at the parameters test/golden_gen.ml renders. *)
let golden env = function
  | "contact_row" -> M.Contact_row.make env ~layer:"poly" ~l:(um 8.) ()
  | "diff_pair" ->
      M.Diff_pair.make env ~polarity:M.Mosfet.Pmos ~w:(um 10.) ~l:(um 5.)
        ~well:false ()
  | "interdigitated" ->
      M.Interdigitated.make env ~polarity:M.Mosfet.Nmos ~w:(um 8.) ~l:(um 2.)
        ~fingers:4 ()
  | "common_centroid" ->
      M.Common_centroid.make env ~polarity:M.Mosfet.Pmos ~w:(um 8.)
        ~l:(um 1.6) ()
  | g -> invalid_arg ("unknown golden module " ^ g)

let golden_names = [ "contact_row"; "diff_pair"; "interdigitated"; "common_centroid" ]

(* Item [i] of the seeded stream.  Sizes stay inside the ranges the module
   library builds cleanly, so no item is expected to fail.  A bare module
   with p-diffusion has no substrate tap, so latch-up reports exactly one
   finding on it; [latch] records that expectation. *)
let item_at st i =
  if i mod amp_every = amp_every - 1 then Amp
  else if i mod golden_every = golden_every / 2 then
    Golden (List.nth golden_names (i / golden_every mod 4))
  else
    let num lo hi = Value.Num (float_of_int (lo + Random.State.int st (hi - lo + 1))) in
    match Random.State.int st 6 with
    | 0 | 1 ->
        let poly = Random.State.bool st in
        Lang
          {
            entity = "ContactRow";
            params =
              [
                ("layer", Value.Str (if poly then "poly" else "pdiff"));
                ("W", num 4 30);
                ("L", num 4 30);
              ];
            mos = 0;
            latch = (if poly then 0 else 1);
          }
    | 2 -> Lang { entity = "Trans"; params = [ ("W", num 4 24); ("L", num 2 8) ]; mos = 1; latch = 1 }
    | 3 | 4 ->
        Lang { entity = "DiffPair"; params = [ ("W", num 4 24); ("L", num 2 8) ]; mos = 2; latch = 1 }
    | _ -> Lang { entity = "Ladder"; params = [ ("N", num 2 8); ("W", num 4 20) ]; mos = 0; latch = 1 }

type ctx = {
  env : Env.t;
  source : string;  (** examples/modules.amg *)
  golden_cif : (string * string) list;  (** name -> committed CIF bytes *)
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let setup () =
  let env = fresh_env () in
  let source = read_file "examples/modules.amg" in
  ignore (Amg_lang.Parser.parse_program ~file:"examples/modules.amg" source);
  let golden_cif =
    List.map
      (fun g -> (g, read_file (Printf.sprintf "test/golden/%s.cif" g)))
      golden_names
  in
  { env; source; golden_cif }

let span name f = Obs.span name f
let tech ctx = Env.tech ctx.env

(* Geometric DRC violations seen so far (must stay 0). *)
let violations = ref 0

(* The shared back half of every build: DRC (every check, latch-up
   included), device extraction, CIF. *)
let finish ctx obj =
  let tech = tech ctx in
  let vios =
    span "bench.drc.check" (fun () ->
        Checker.run ~checks:Checker.[ Widths; Spacings; Enclosures; Extensions ] ~tech obj)
  in
  let latch = span "bench.drc.latchup" (fun () -> Checker.run ~checks:[ Checker.Latch_up ] ~tech obj) in
  let x = span "bench.extract.devices" (fun () -> Devices.extract ~tech obj) in
  let cif = span "bench.layout.cif" (fun () -> Amg_layout.Cif.of_lobj ~tech obj) in
  violations := !violations + List.length vios;
  (List.length vios, List.length latch, x, cif)

(* One build; [Ok None] when every output matches its reference. *)
let build ctx item =
  match item with
  | Lang { entity; params; mos; latch = latch_expected } ->
      let program =
        span "bench.lang.parse" (fun () ->
            Amg_lang.Parser.parse_program ~file:"examples/modules.amg" ctx.source)
      in
      let obj =
        span "bench.lang.interp" (fun () ->
            Amg_lang.Interp.build ctx.env program entity params)
      in
      let vios, latch, x, cif = finish ctx obj in
      let found = List.length x.Devices.mosfets in
      if vios > 0 then Some (Printf.sprintf "%d DRC violations" vios)
      else if latch <> latch_expected then
        Some (Printf.sprintf "%d latch-up findings, expected %d" latch latch_expected)
      else if found <> mos then
        Some (Printf.sprintf "extracted %d MOS devices, expected %d" found mos)
      else if cif = "" then Some "empty CIF"
      else None
  | Golden g ->
      let obj = span "bench.modules.gen" (fun () -> golden ctx.env g) in
      let vios, _latch, _x, cif = finish ctx obj in
      (* Bare showcase modules carry no substrate taps, so only the
         geometric checks must be clean; the latch-up check still runs
         (and is timed) as part of the build path. *)
      if vios > 0 then Some (Printf.sprintf "%d DRC violations" vios)
      else if cif <> List.assoc g ctx.golden_cif then
        Some "CIF differs from test/golden"
      else None
  | Amp ->
      let r = span "bench.modules.gen" (fun () -> Amg_amplifier.Amplifier.build ctx.env) in
      let obj = r.Amg_amplifier.Amplifier.obj in
      let vios, latch, _x, _cif = finish ctx obj in
      let w = r.Amg_amplifier.Amplifier.width_um
      and h = r.Amg_amplifier.Amplifier.height_um in
      if Printf.sprintf "%.1f x %.1f" w h <> "279.8 x 243.8" then
        Some (Printf.sprintf "amplifier is %.1f x %.1f um" w h)
      else if Lobj.shape_count obj <> 2472 then
        Some (Printf.sprintf "amplifier has %d shapes" (Lobj.shape_count obj))
      else if vios + latch > 0 then
        Some (Printf.sprintf "amplifier has %d DRC violations" (vios + latch))
      else None

(* The item stream of one seed, replayable: the traced pass rebuilds the
   items the untraced pass built. *)
let stream opts =
  let st = rng opts 1 in
  let items = Hashtbl.create 4096 in
  fun i ->
    for j = Hashtbl.length items to i do
      Hashtbl.add items j (item_at st j)
    done;
    Hashtbl.find items i

(* Build items [0 ..] until [budget_s] has passed or [max_ops] are done;
   returns the count, the wall time, the completed builds' latencies and
   the windows: every [amp_every] consecutive items (one amplifier, the
   same share of golden modules), the builds that completed and the
   window's seconds.  A last, partial window is left out. *)
let pass ctx t items ~budget_s ~max_ops =
  settle ();
  let lat = ref [] and windows = ref [] in
  let t0 = now () in
  let w0 = ref t0 and ok = ref 0 in
  let i = ref 0 in
  while !i < max_ops && now () -. t0 < budget_s do
    let item = items !i in
    let s = now () in
    let r = protect (fun () -> build ctx item) in
    let e = now () in
    if record t ~what:(item_name item) r then begin
      lat := ((e -. s) *. 1000.) :: !lat;
      incr ok
    end;
    incr i;
    if !i mod amp_every = 0 then begin
      windows := (!ok, e -. !w0) :: !windows;
      w0 := e;
      ok := 0
    end
  done;
  (!i, now () -. t0, !lat, List.rev !windows)

let setup_only _opts = ignore (setup ()); ignore

let e2e opts t =
  let ctx = setup () in
  let _, _, lat, windows = pass ctx t (stream opts) ~budget_s:opts.seconds ~max_ops:max_int in
  {
    ops_per_s = window_rate 0.5 windows;
    window_rates = rates windows;
    lat_ms = lat;
    warm = None;
  }

let traced opts t =
  let ctx = setup () in
  let items = stream opts in
  (* One untimed cycle of items first (the amplifier included), so neither
     half pays the process's warm-up and the overhead compares like with
     like. *)
  ignore (pass ctx (tally ()) items ~budget_s:infinity ~max_ops:amp_every);
  let n, wall_u, _, _ = pass ctx t items ~budget_s:(opts.seconds /. 2.) ~max_ops:max_int in
  violations := 0;
  Obs.enable ();
  let _, wall_t, _, _ = pass ctx t items ~budget_s:infinity ~max_ops:n in
  Obs.disable ();
  let st = self_times () in
  let unattributed = print_ledger ~wall_s:wall_t st in
  let per_op s = s *. 1000. /. float_of_int n in
  let self k = get st.all k in
  let incl k =
    match List.assoc_opt k (Obs.spans ()) with Some s -> s.Obs.total_s | None -> 0.
  in
  let c k = float_of_int (Obs.counter k) in
  [
    ("lang.parse_ms", per_op (incl "bench.lang.parse"));
    ("lang.interp_self_ms", per_op (self "bench.lang.interp"));
    ("compact.busy_ms", per_op (self "compact"));
    ("compact.pairs_considered", c "compact.pairs_considered" /. float_of_int n);
    ("compact.limits", c "compact.limits" /. float_of_int n);
    ("geometry.sindex_hit_ratio", c "sindex.hits" /. Float.max 1. (c "sindex.scanned"));
    ("drc.check_ms", per_op (incl "bench.drc.check"));
    ("drc.latchup_ms", per_op (incl "bench.drc.latchup"));
    ("drc.violations", float_of_int !violations /. float_of_int n);
    ("extract.busy_ms", per_op (incl "bench.extract.devices"));
    ("layout.cif_ms", per_op (incl "bench.layout.cif"));
    ("modules.gen_ms", per_op (self "bench.modules.gen"));
    ("unattributed_ms", per_op unattributed);
    ("obs.overhead_share", (wall_t /. wall_u) -. 1.);
  ]
