(* The benchmark's own tests: every short-horizon golden value equals the
   output of the benchmark path and of each reference path (the Per_tick
   engine; sequential Cluster.run and Fleet at 1 and 2 domains); traced
   and untraced repetitions report identical engine, fleet and cluster
   counts; the campaigns stay contained under turbo and per-tick
   execution alike. *)

module W = Workloads

let env seed =
  { W.dir = "inputs"; seed; domains = W.fleet_domains; recorder = None;
    profile = false; mode = Air_exec.Engine.Adaptive }

let traced e = { e with W.recorder = Some (Spans.create ()); profile = true }

let golden_proven kind () =
  let horizon = W.horizon kind W.Short in
  for v = 0 to W.variants - 1 do
    let e = env v in
    let golden = Golden.expected kind ~variant:v ~horizon in
    Alcotest.(check bool)
      (Printf.sprintf "variant %d has a golden value" v)
      true (golden <> None);
    let bench = W.prepare e kind W.Short in
    Alcotest.(check bool) "no halt" true bench.W.clean;
    Alcotest.(check (option string))
      (Printf.sprintf "variant %d: benchmark path" v)
      golden (Some bench.W.output);
    List.iter
      (fun (label, out) ->
        Alcotest.(check (option string))
          (Printf.sprintf "variant %d: %s" v label)
          golden (Some out))
      (W.references e kind W.Short)
  done

let variants_differ kind () =
  let horizon = W.horizon kind W.Full in
  let digests =
    List.init W.variants (fun variant ->
        Golden.expected kind ~variant ~horizon)
  in
  Alcotest.(check int)
    "distinct golden outputs" W.variants
    (List.length (List.sort_uniq compare digests))

let counts_untouched_by_tracing kind () =
  let e = env 5 in
  let plain = W.prepare e kind W.Short
  and with_trace = W.prepare (traced e) kind W.Short in
  Alcotest.(check bool) "counts present" true (W.counts plain <> []);
  Alcotest.(check (list (pair string (float 0.))))
    "traced = untraced" (W.counts plain) (W.counts with_trace)

let campaigns_contained () =
  for seed = 0 to 3 do
    let e = env seed in
    let turbo = W.prepare e W.Campaign W.Short
    and per_tick =
      W.prepare { e with W.mode = Air_exec.Engine.Per_tick } W.Campaign W.Short
    in
    Alcotest.(check string) "turbo" "contained" turbo.W.output;
    Alcotest.(check string) "per-tick" "contained" per_tick.W.output;
    List.iter
      (fun key ->
        Alcotest.(check (option (float 0.)))
          key
          (List.assoc_opt key per_tick.W.layers)
          (List.assoc_opt key turbo.W.layers))
      [ "faults.injections_applied"; "obs.trace_events";
        "obs.telemetry_frames" ]
  done

let self_time () =
  let s = Spans.create () in
  let rec_ = Some s in
  let (), outer =
    Spans.span rec_ "outer" (fun () ->
        ignore (Spans.span rec_ "inner" (fun () -> Unix.sleepf 0.01)))
  in
  match Spans.summary s with
  | [ ("outer", (1, total, self)); ("inner", (1, inner, inner_self)) ] ->
    Alcotest.(check (float 1e-9)) "outer total" outer total;
    Alcotest.(check (float 1e-9)) "outer self" (total -. inner) self;
    Alcotest.(check (float 1e-9)) "leaf self" inner inner_self
  | _ -> Alcotest.fail "unexpected span summary"

let () =
  let per kind f = Alcotest.test_case (W.name kind) `Quick (f kind) in
  let modules = [ W.Leo_dense; W.Beacon_sparse; W.Constellation_fleet ] in
  Alcotest.run "perfbench"
    [ ("golden", List.map (fun k -> per k golden_proven) modules);
      ("variants", List.map (fun k -> per k variants_differ) modules);
      ( "tracing",
        List.map (fun k -> per k counts_untouched_by_tracing) modules );
      ( "campaign",
        [ Alcotest.test_case "contained" `Quick campaigns_contained ] );
      ("spans", [ Alcotest.test_case "self time" `Quick self_time ]) ]
