(* Single-core export goldens: the example satellite run for a fixed
   horizon with a flight recorder attached, and the digests of the three
   exports the perfbench golden does not cover — the recorder's Chrome
   trace JSON, the text timeline and the metrics JSON. The digests pin the
   exports byte for byte, so a change to the executive that alters any of
   them (a renamed schedule in a span detail, a reordered metric, a moved
   window boundary) fails here. Rerecord only when the output is meant to
   change. *)

open Air

let leo_path = "../examples/configs/leo_satellite.air"
let horizon = 20_000

let run_leo () =
  let cfg =
    match Air_config.Loader.load_file leo_path with
    | Ok cfg -> cfg
    | Error msg -> Alcotest.failf "load %s: %s" leo_path msg
  in
  let system =
    System.create
      { cfg with System.recorder = Some (Air_obs.Span.create ()) }
  in
  Air_exec.Engine.advance (Air_exec.Engine.create system) ~ticks:horizon;
  system

let timeline system =
  let opens =
    match System.recorder system with
    | None -> []
    | Some r -> Air_obs.Span.open_spans r ~now:(System.now system)
  in
  Air_vitral.Timeline.render ~tracks:(System.track_names system)
    ~lanes:(System.cores system)
    (System.spans system @ opens)

let digest s = Digest.to_hex (Digest.string s)

let leo_exports_golden () =
  let system = run_leo () in
  Alcotest.(check int) "one lane" 1 (System.cores system);
  Alcotest.(check string)
    "chrome trace JSON" "654895d099b9e0bf96cdde0d3142f86f"
    (digest (System.chrome_trace system));
  Alcotest.(check string)
    "timeline text" "27fd26d2e5fc423660001749fe899cf3"
    (digest (timeline system));
  Alcotest.(check string)
    "metrics JSON" "057a59e84ecc253b4cd9e8eb08fd3fd2"
    (digest (System.metrics_json system))

let suite =
  [ Alcotest.test_case "leo single-core exports golden" `Quick
      leo_exports_golden ]
