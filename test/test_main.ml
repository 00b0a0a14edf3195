(* The determinism suites exercise pools larger than this host's core
   count; lift the pool's oversubscription clamp so they get real worker
   domains (results are identical either way — that is what the suites
   assert). *)
let () = Amg_parallel.Pool.set_oversubscribe true

let () =
  Alcotest.run "amg"
    [
      ("geometry", Test_geometry.suite);
      ("tech", Test_tech.suite);
      ("layout", Test_layout.suite);
      ("sindex", Test_sindex.suite);
      ("compact", Test_compact.suite);
      ("drc", Test_drc.suite);
      ("latchup", Test_latchup.suite);
      ("core", Test_core.suite);
      ("prefix-cache", Test_prefix_cache.suite);
      ("parallel", Test_parallel.suite);
      ("symmetry", Test_symmetry.suite);
      ("bb", Test_bb.suite);
      ("local", Test_local.suite);
      ("obs", Test_obs.suite);
      ("metrics", Test_metrics.suite);
      ("lang", Test_lang.suite);
      ("route", Test_route.suite);
      ("modules", Test_modules.suite);
      ("circuit", Test_circuit.suite);
      ("amplifier", Test_amplifier.suite);
      ("extract", Test_extract.suite);
      ("tech-indep", Test_tech_indep.suite);
      ("robust", Test_robust.suite);
      ("store", Test_store.suite);
      ("sweep", Test_sweep.suite);
      ("serve", Test_serve.suite);
    ]
