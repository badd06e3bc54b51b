(* Observational equivalence of the skip-ahead executive (Air_exec.Engine):
   for any module the engine must be indistinguishable from per-tick
   execution — same event trace, same telemetry frames, same metrics JSON,
   same clock — whether the workload is hand-written (the Sect. 6
   prototype), randomly generated (Taskgen + synthesized PSTs), sharded
   over multiple cores, or driven through a fault-injection campaign
   (identical fingerprints and air-campaign/1 reports). *)

open Air_sim
open Air_model
open Air_pos
module System = Air.System
module Engine = Air_exec.Engine
module C = Air_faults.Campaign
module E = Air_faults.Engine
module O = Air_faults.Oracle
module R = Air_faults.Report

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let pid = Ident.Partition_id.make
let sid = Ident.Schedule_id.make
let w partition offset duration = { Schedule.partition; offset; duration }
let q partition cycle duration = { Schedule.partition; cycle; duration }

(* --- Observable fingerprint --------------------------------------------- *)

let rendered_trace system =
  List.map
    (fun (t, ev) -> Format.asprintf "[%d] %a" t Event.pp ev)
    (Trace.to_list (System.trace system))

(* Everything an observer can compare across the two executives. Telemetry
   frames are immutable records of scalars and arrays, so structural
   equality is exact. *)
let assert_equivalent ~what reference candidate =
  check Alcotest.int
    (what ^ ": clock")
    (System.now reference) (System.now candidate);
  check Alcotest.(list string)
    (what ^ ": event trace")
    (rendered_trace reference) (rendered_trace candidate);
  check Alcotest.string
    (what ^ ": metrics JSON")
    (System.metrics_json reference)
    (System.metrics_json candidate);
  check Alcotest.bool
    (what ^ ": telemetry frames")
    true
    (System.telemetry_frames reference = System.telemetry_frames candidate)

(* --- Randomly generated modules ----------------------------------------- *)

(* A fresh module from a seeded Taskgen workload under a synthesized PST,
   with telemetry enabled so frame equality is exercised too. Returns
   [None] when synthesis fails for this seed (the property skips it). *)
let taskgen_system ?cores ?(utilization = 0.4) seed =
  let rng = Rng.create seed in
  let n_partitions = 2 + (seed mod 3) in
  let gen =
    Air_workload.Taskgen.generate rng ~n_partitions ~procs_per_partition:2
      ~utilization
  in
  match Air_analysis.Synthesis.synthesize gen.Air_workload.Taskgen.requirements with
  | Error _ -> None
  | Ok schedule ->
    let config =
      System.config
        ~partitions:
          (List.map
             (fun (p, scripts) -> System.partition_setup p scripts)
             gen.Air_workload.Taskgen.partitions)
        ~schedules:[ schedule ] ~telemetry:Air_obs.Telemetry.default_config
        ?cores ()
    in
    Some (System.create config, schedule.Schedule.mtf)

let skip_matches_per_tick_on_random_modules =
  QCheck.Test.make ~name:"skip-ahead is bit-identical on seeded random modules"
    ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      match (taskgen_system seed, taskgen_system seed) with
      | None, _ | _, None -> QCheck.assume_fail ()
      | Some (reference, mtf), Some (candidate, _) ->
        (* A few MTFs plus a ragged tail so runs end mid-frame too. *)
        let ticks = (3 * mtf) + (seed mod 997) in
        System.run reference ~ticks;
        let engine = Engine.create candidate in
        Engine.advance engine ~ticks;
        assert_equivalent ~what:(Printf.sprintf "seed %d" seed) reference
          candidate;
        check Alcotest.int
          (Printf.sprintf "seed %d: simulated ticks" seed)
          ticks (Engine.simulated engine);
        true)

(* Both execution strategies — plain per-tick and the default skip-ahead
   mode — must be bit-identical, both on sparse modules (where skipping
   dominates) and on dense ones (where most stepped ticks are event ticks
   and the quiescence check fails). This is the tentpole invariant: mode
   only changes speed, never observables. *)
let modes_agree ~name ~utilization =
  QCheck.Test.make ~name ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      match
        (taskgen_system ~utilization seed, taskgen_system ~utilization seed)
      with
      | None, _ | _, None -> QCheck.assume_fail ()
      | Some (reference, mtf), Some (adaptive_sys, _) ->
        let ticks = (3 * mtf) + (seed mod 997) in
        let per_tick = Engine.create ~mode:Engine.Per_tick reference in
        Engine.advance per_tick ~ticks;
        let adaptive = Engine.create ~mode:Engine.Adaptive adaptive_sys in
        Engine.advance adaptive ~ticks;
        assert_equivalent
          ~what:(Printf.sprintf "seed %d: adaptive vs per-tick" seed)
          reference adaptive_sys;
        check Alcotest.int
          (Printf.sprintf "seed %d: per-tick simulated" seed)
          ticks (Engine.simulated per_tick);
        check Alcotest.int
          (Printf.sprintf "seed %d: adaptive simulated" seed)
          ticks (Engine.simulated adaptive);
        true)

let modes_agree_sparse =
  modes_agree ~name:"per-tick = adaptive on sparse random modules"
    ~utilization:0.4

let modes_agree_dense =
  modes_agree ~name:"per-tick = adaptive on dense random modules"
    ~utilization:0.9

(* --- Dense workloads ----------------------------------------------------- *)

(* A fully dense module: one partition owns the whole 50-tick MTF and its
   single process runs [compute] ticks per activation, on every tick. With
   [Compute 1] (the default) each tick completes a computation and leaves
   [compute_left = 0], so no tick is ever quiescent and skip-ahead can
   never engage; a long computation is a busy span the engine skips. *)
let dense_system ?causal ?(compute = 1) () =
  let p =
    Partition.make ~id:(pid 0) ~name:"dense"
      [ Process.spec ~base_priority:1 "spin" ]
  in
  let script =
    { Script.body = [| Script.Compute compute |]; on_end = Script.Repeat }
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"S" ~mtf:50
      ~requirements:[ q (pid 0) 50 50 ]
      [ w (pid 0) 0 50 ]
  in
  System.create
    (System.config ?causal
       ~partitions:[ System.partition_setup p [ script ] ]
       ~schedules:[ schedule ] ())

(* The BENCH_5 regression: skip-ahead once paid a next-event probe per
   executed tick on dense workloads. A module with no skippable
   tick must cost the default no probe at all — every tick is
   non-quiescent, so each one is stepped and the probe never consulted —
   while staying bit-identical to the per-tick reference. *)
let adaptive_never_probes_when_dense () =
  let reference = dense_system () in
  System.run reference ~ticks:10_000;
  let engine = Engine.create (dense_system ()) in
  check Alcotest.bool "create defaults to adaptive" true
    (Engine.mode engine = Engine.Adaptive);
  Engine.advance engine ~ticks:10_000;
  assert_equivalent ~what:"dense module" reference (Engine.system engine);
  let stats = Engine.stats engine in
  check Alcotest.int "nothing skipped" 0 stats.Engine.skipped;
  check Alcotest.int "no probes paid" 0 stats.Engine.probes;
  check Alcotest.int "all ticks stepped" 10_000 stats.Engine.stepped

(* A process mid-way through one long computation is busy, not dense:
   within an MTF only the window's dispatch tick does anything beyond
   compute progress, so skip-ahead steps at most two ticks per MTF and
   stays bit-identical to per-tick. *)
let long_compute_skips_busy_spans () =
  let ticks = 10_000 in
  let reference = dense_system ~compute:1_000_000_000 () in
  System.run reference ~ticks;
  let engine =
    Engine.create ~mode:Engine.Adaptive
      (dense_system ~compute:1_000_000_000 ())
  in
  Engine.advance engine ~ticks;
  assert_equivalent ~what:"adaptive: long compute" reference
    (Engine.system engine);
  let stats = Engine.stats engine in
  check Alcotest.bool "adaptive: at most two stepped ticks per MTF" true
    (stats.Engine.stepped <= 2 * (ticks / 50));
  check Alcotest.int "adaptive: stepped + skipped" ticks
    (stats.Engine.stepped + stats.Engine.skipped)

(* --- Busy spans: what the skip must refuse ------------------------------- *)

(* A small two-partition module whose worker in partition A is mid-compute
   whenever something interrupts a busy span: a higher-priority timed wake,
   a queuing message (sent by partition B, or delivered from outside), the
   worker's own deadline, a compute-cost budget blow (one lane), the stall
   curve arming (two lanes, windows on different lanes) or a clock-jitter
   injection. A is round-robin on some seeds, and on others the worker
   computes while holding the preemption lock. Returns the configuration,
   the horizon, and the run's injections as (tick, action). *)
let busy_module ~cores seed =
  let rs = Random.State.make [| seed |] in
  let int lo hi = lo + Random.State.int rs (hi - lo + 1) in
  let a = pid 0 and b = pid 1 in
  let mtf = int 60 120 in
  let split = int (mtf / 3) (2 * mtf / 3) in
  let compute = int 5 (2 * split) in
  let worker_body =
    if seed mod 4 = 0 then
      [ Script.Lock_preemption; Script.Compute compute;
        Script.Unlock_preemption ]
    else [ Script.Compute compute ]
  in
  let partition_a =
    Partition.make ~id:a ~name:"A"
      [ Process.spec ~periodicity:(Process.Periodic mtf)
          ~time_capacity:(int (compute / 2) (2 * compute))
          ~base_priority:5 "worker";
        Process.spec ~base_priority:1 "waker";
        Process.spec ~base_priority:2 "rx" ]
  in
  let partition_b =
    Partition.make ~id:b ~name:"B"
      [ Process.spec ~periodicity:(Process.Periodic mtf) ~base_priority:5
          "tx" ]
  in
  let scripts_a =
    [ Script.periodic_body worker_body;
      Script.make [ Script.Timed_wait (int 7 40); Script.Compute (int 1 3) ];
      Script.make
        [ Script.Receive_queuing ("IN", Time.infinity); Script.Compute 1 ] ]
  in
  let scripts_b =
    [ Script.periodic_body
        [ Script.Compute (int 1 10); Script.Send_queuing ("OUT", "m");
          Script.Compute (int 5 30) ] ]
  in
  let policy =
    if seed mod 5 = 1 then Kernel.Round_robin { quantum = int 2 6 }
    else Kernel.Priority_preemptive
  in
  let network =
    { Air_ipc.Port.ports =
        [ Air_ipc.Port.queuing_port ~name:"OUT" ~partition:b
            ~direction:Air_ipc.Port.Source ~depth:4 ~max_message_size:8;
          Air_ipc.Port.queuing_port ~name:"IN" ~partition:a
            ~direction:Air_ipc.Port.Destination ~depth:4
            ~max_message_size:8 ];
      channels = [ { Air_ipc.Port.source = "OUT"; destinations = [ "IN" ] } ]
    }
  in
  let contention =
    match seed mod 3 with
    | 0 -> None
    | 1 ->
      (* Tight enough to blow mid-compute on a single lane. *)
      Some
        (Air_spatial.Contention.config ~default_budget:(int 5 40) ~curve:[]
           ~compute_cost:(int 1 2) ())
    | _ ->
      (* An aggregate overrun arms the curve once both lanes charged. *)
      Some
        (Air_spatial.Contention.config ~default_budget:(int 10 60)
           ~curve:[ (0, 1); (400, 2) ] ~compute_cost:1 ())
  in
  let hm_tables =
    if seed mod 2 = 0 then Air.Hm.default_tables
    else
      { Air.Hm.default_tables with
        Air.Hm.process_defaults =
          [ (Error.Deadline_missed, Error.Restart_process) ];
        partition_defaults =
          [ (Error.Temporal_degradation, Error.Partition_ignore) ] }
  in
  let schedule =
    Schedule.make ~id:(sid 0) ~name:"S" ~mtf
      ~requirements:[ q a mtf split; q b mtf (mtf - split) ]
      [ w a 0 split; w b split (mtf - split) ]
  in
  let config =
    System.config ~network ~hm_tables ?contention ~cores
      ~telemetry:Air_obs.Telemetry.default_config
      ~partitions:
        [ System.partition_setup ~policy partition_a scripts_a;
          System.partition_setup partition_b scripts_b ]
      ~schedules:[ schedule ] ()
  in
  let ticks = (4 * mtf) + int 0 (mtf - 1) in
  let injections =
    List.sort compare
      (List.init (int 1 4) (fun _ ->
           let at = int 1 (ticks - 1) in
           if Random.State.bool rs then (at, `Jitter (int 1 6))
           else (at, `Deliver)))
  in
  (config, ticks, injections)

(* Advance [engine] to [ticks], applying each injection at its tick. *)
let run_with_injections engine ~ticks injections =
  let system = Engine.system engine in
  let at = ref 0 in
  List.iter
    (fun (tick, injection) ->
      Engine.advance engine ~ticks:(tick - !at);
      at := tick;
      match injection with
      | `Jitter n -> System.inject_clock_jitter system (pid 0) ~ticks:n
      | `Deliver ->
        Result.get_ok
          (System.deliver_remote system ~port:"IN" (Bytes.of_string "x")))
    injections;
  Engine.advance engine ~ticks:(ticks - !at)

let busy_spans_refused_when_interrupted =
  QCheck.Test.make
    ~name:"per-tick = adaptive when busy spans are interrupted"
    ~count:60
    QCheck.(int_range 1 100_000)
    (fun seed ->
      List.iter
        (fun cores ->
          let config, ticks, injections = busy_module ~cores seed in
          let run mode =
            let engine = Engine.create ~mode (System.create config) in
            run_with_injections engine ~ticks injections;
            Engine.system engine
          in
          assert_equivalent
            ~what:(Printf.sprintf "seed %d cores %d adaptive" seed cores)
            (run Engine.Per_tick) (run Engine.Adaptive))
        [ 1; 2 ];
      true)

(* Tentpole acceptance: the steady-state per-tick path allocates nothing.
   After the boot transient, [System.step] on the dense module must not
   touch the minor heap — scheduler, dispatcher, kernel announce, process
   schedule and interpreter all run on preallocated state. [Gc.minor_words]
   itself returns a boxed float, so the probe's own cost is calibrated
   first and the measured delta must equal it exactly. *)
let steady_state_tick_is_allocation_free () =
  (* The causal tracker rides along: its presence on the config must not
     put anything on the tick path (stamping itself is pinned
     allocation-free in [test_causal.ml]). *)
  let s = dense_system ~causal:(Air_obs.Causal.create ()) () in
  System.run s ~ticks:200;
  let calibration =
    let a = Gc.minor_words () in
    let b = Gc.minor_words () in
    b -. a
  in
  let before = Gc.minor_words () in
  System.run s ~ticks:5_000;
  let after = Gc.minor_words () in
  check (Alcotest.float 0.) "minor words across 5000 steady ticks"
    calibration (after -. before)

(* --- Self-profiler -------------------------------------------------------- *)

(* The profiler is observational: attaching one must not change a single
   bit of the observable run, and its step/batch/skip tick buckets must
   partition the simulated horizon exactly — in every mode. The satellite
   workload exercises all three buckets (per-tick mode batches, and under
   skip-ahead quiet spans skip and interesting ticks step). *)
let profile_ticks = 20_000

let profiler_buckets_partition_ticks () =
  let reference = Air_workload.Satellite.make () in
  System.run reference ~ticks:profile_ticks;
  List.iter
    (fun (label, mode) ->
      let profiler = Air_exec.Profiler.create () in
      let engine =
        Engine.create ~profiler ~mode (Air_workload.Satellite.make ())
      in
      Engine.advance engine ~ticks:profile_ticks;
      check Alcotest.bool
        (label ^ ": engine keeps the profiler")
        true
        (match Engine.profiler engine with
        | Some p -> p == profiler
        | None -> false);
      check Alcotest.int
        (label ^ ": buckets partition the horizon")
        profile_ticks
        (Air_exec.Profiler.simulated profiler);
      check Alcotest.int
        (label ^ ": probes attributed")
        (Engine.stats engine).Engine.probes
        (Air_exec.Profiler.probes profiler);
      assert_equivalent ~what:(label ^ ": profiled run") reference
        (Engine.system engine);
      let json = Air_exec.Profiler.to_json profiler in
      (match Json_lint.check json with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid profile JSON: %s" label e);
      check Alcotest.bool
        (label ^ ": profile schema")
        true
        (Astring_contains.contains json "\"schema\":\"air-profile/2\""))
    [ ("per-tick", Engine.Per_tick); ("adaptive", Engine.Adaptive) ]

(* Mode-specific attribution: per-tick advances are batches (no probes,
   no skips); the adaptive satellite run pays probes after quiescent
   ticks, every one attributed, and uses skips (sparse idle spans). *)
let profiler_attributes_by_mode () =
  let run mode =
    let profiler = Air_exec.Profiler.create () in
    let engine =
      Engine.create ~profiler ~mode (Air_workload.Satellite.make ())
    in
    Engine.advance engine ~ticks:profile_ticks;
    (profiler, Engine.stats engine)
  in
  let p, _ = run Engine.Per_tick in
  check Alcotest.int "per-tick: no probes" 0 (Air_exec.Profiler.probes p);
  let p, stats = run Engine.Adaptive in
  check Alcotest.bool "adaptive: probes paid" true (stats.Engine.probes > 0);
  check Alcotest.int "adaptive: every probe attributed" stats.Engine.probes
    (Air_exec.Profiler.probes p);
  check Alcotest.bool "adaptive: skips engaged" true (stats.Engine.skipped > 0)

(* --- Horizon arithmetic -------------------------------------------------- *)

(* [Clock.horizon] must saturate at [Time.infinity] instead of wrapping
   when [now + remaining + 1] would exceed [max_int] — a watch running
   with an effectively unbounded budget near the end of the representable
   range would otherwise compute a negative bound and stall the skip. *)
let horizon_saturates_near_max_int () =
  check Alcotest.int "normal case is one past the budget" 11
    (Air_exec.Clock.horizon ~now:0 ~remaining:10);
  check Alcotest.int "overflowing sum saturates" Time.infinity
    (Air_exec.Clock.horizon ~now:(Time.infinity - 5) ~remaining:10);
  check Alcotest.int "exact boundary saturates" Time.infinity
    (Air_exec.Clock.horizon ~now:10 ~remaining:(Time.infinity - 10));
  check Alcotest.int "just below the boundary stays finite"
    (Time.infinity - 1)
    (Air_exec.Clock.horizon ~now:10 ~remaining:(Time.infinity - 12))

(* --- The Sect. 6 prototype ---------------------------------------------- *)

let satellite_ticks = 20_000

let satellite_skip_equivalence () =
  let reference = Air_workload.Satellite.make () in
  System.run reference ~ticks:satellite_ticks;
  let engine =
    Engine.create (Air_workload.Satellite.make ())
  in
  Engine.advance engine ~ticks:satellite_ticks;
  assert_equivalent ~what:"satellite" reference (Engine.system engine);
  (* The satellite workload has idle spans: skip-ahead must actually
     engage, otherwise the executive degenerated to per-tick. *)
  let stats = Engine.stats engine in
  check Alcotest.bool "some ticks skipped" true (stats.Engine.skipped > 0);
  check Alcotest.int "stepped + skipped" satellite_ticks
    (stats.Engine.stepped + stats.Engine.skipped)

let multicore_skip_equivalence () =
  let make () =
    let config = Air_workload.Satellite.config () in
    System.create { config with System.cores = Some 2 }
  in
  let reference = make () in
  System.run reference ~ticks:satellite_ticks;
  let engine = Engine.create (make ()) in
  Engine.advance engine ~ticks:satellite_ticks;
  check Alcotest.int "2 cores" 2 (System.cores (Engine.system engine));
  assert_equivalent ~what:"satellite --cores 2" reference
    (Engine.system engine)

let run_mtfs_equivalence () =
  let reference = Air_workload.Satellite.make () in
  System.run_mtfs reference 7;
  let engine =
    Engine.create (Air_workload.Satellite.make ())
  in
  Engine.run_mtfs engine 7;
  assert_equivalent ~what:"run_mtfs" reference (Engine.system engine)

(* Pin the schedule-switch boundary fix: when an iteration starts at an
   MTF boundary with a pending switch to a different-MTF schedule, the
   switch takes effect on the boundary tick and the iteration must finish
   the frame of the schedule *now running* — not advance the old MTF's
   worth of ticks into the new frame. *)
let s0_20 =
  Schedule.make ~id:(sid 0) ~name:"S0" ~mtf:20
    ~requirements:[ q (pid 0) 20 10; q (pid 1) 20 10 ]
    [ w (pid 0) 0 10; w (pid 1) 10 10 ]

let s1_40 =
  Schedule.make ~id:(sid 1) ~name:"S1" ~mtf:40
    ~requirements:[ q (pid 0) 40 10 ]
    [ w (pid 0) 0 10 ]

let switch_system () =
  let p name i =
    Partition.make ~id:(pid i) ~name
      [ Process.spec ~periodicity:(Process.Periodic 20) ~time_capacity:20
          ~wcet:4 ~base_priority:5 "work" ]
  in
  let script =
    { Script.body = [| Script.Compute 4; Script.Periodic_wait |];
      on_end = Script.Repeat }
  in
  System.create
    (System.config
       ~partitions:
         [ System.partition_setup (p "A" 0) [ script ];
           System.partition_setup (p "B" 1) [ script ] ]
       ~schedules:[ s0_20; s1_40 ] ())

let run_mtfs_whole_frames_across_switch () =
  let reference = switch_system () in
  (* [run_mtfs] leaves the clock one tick before the frame-close tick
     (the close happens on the next frame's offset-0 tick), so each
     iteration's net advance is exactly one MTF of the running schedule. *)
  System.run_mtfs reference 1;
  check Alcotest.int "one whole S0 frame" 19 (System.now reference);
  Result.get_ok (System.request_schedule reference (sid 1));
  System.run_mtfs reference 1;
  (* The boundary tick effects the 20 -> 40 switch; the iteration then
     finishes the 40-tick S1 frame: 19 + 40 = 59. The old code advanced
     only the stale 20-tick MTF, stopping half a frame in at 39. *)
  check Alcotest.int "switch iteration advances a whole S1 frame" 59
    (System.now reference);
  System.run_mtfs reference 2;
  check Alcotest.int "subsequent iterations are whole S1 frames" 139
    (System.now reference);
  (* The engine mirror takes the same path, bit-identically. *)
  let engine = Engine.create (switch_system ()) in
  Engine.run_mtfs engine 1;
  Result.get_ok (System.request_schedule (Engine.system engine) (sid 1));
  Engine.run_mtfs engine 3;
  assert_equivalent ~what:"run_mtfs across a 20 -> 40 switch" reference
    (Engine.system engine)

(* --- leo_satellite campaigns -------------------------------------------- *)

(* The example file ships two fault-injection campaigns; under --turbo the
   engine must reproduce the per-tick run bit for bit: same fingerprint,
   same oracle verdict, same air-campaign/1 JSON. The path is relative to
   the test's build directory (declared as a dune dep). *)
let leo_path = "../examples/configs/leo_satellite.air"

let leo_campaigns_turbo_identical () =
  let config =
    match Air_config.Loader.load_file leo_path with
    | Ok config -> config
    | Error msg -> Alcotest.failf "load %s: %s" leo_path msg
  in
  let specs =
    match Air_config.Loader.load_campaigns_file leo_path with
    | Ok specs -> specs
    | Error msg -> Alcotest.failf "campaigns %s: %s" leo_path msg
  in
  check Alcotest.bool "campaigns present" true (specs <> []);
  let make () = E.Module (System.create config) in
  List.iter
    (fun spec ->
      let per_tick = E.execute ~turbo:false ~make spec in
      let turbo = E.execute ~turbo:true ~make spec in
      check Alcotest.string
        (spec.C.name ^ ": fingerprint")
        per_tick.E.fingerprint turbo.E.fingerprint;
      assert_equivalent
        ~what:(spec.C.name ^ ": observed module")
        (E.observed per_tick.E.target)
        (E.observed turbo.E.target);
      let json run = R.to_json (R.make run (O.check run)) in
      check Alcotest.string
        (spec.C.name ^ ": air-campaign/1 JSON")
        (json per_tick) (json turbo))
    specs

let leo_turbo_reproducible () =
  let config =
    match Air_config.Loader.load_file leo_path with
    | Ok config -> config
    | Error msg -> Alcotest.failf "load %s: %s" leo_path msg
  in
  match Air_config.Loader.load_campaigns_file leo_path with
  | Error msg -> Alcotest.failf "campaigns %s: %s" leo_path msg
  | Ok specs ->
    let make () = E.Module (System.create config) in
    List.iter
      (fun spec ->
        check Alcotest.bool
          (spec.C.name ^ ": reproducible under turbo")
          true
          (E.reproducible ~turbo:true ~make spec))
      specs

let suite =
  [ qcheck skip_matches_per_tick_on_random_modules;
    qcheck modes_agree_sparse;
    qcheck modes_agree_dense;
    Alcotest.test_case "dense module: adaptive never probes" `Quick
      adaptive_never_probes_when_dense;
    qcheck busy_spans_refused_when_interrupted;
    Alcotest.test_case "long compute: busy spans skipped, bit-identical"
      `Quick long_compute_skips_busy_spans;
    Alcotest.test_case "dense module: steady tick is allocation-free" `Quick
      steady_state_tick_is_allocation_free;
    Alcotest.test_case "profiler: buckets partition the horizon" `Quick
      profiler_buckets_partition_ticks;
    Alcotest.test_case "profiler: attribution per mode" `Quick
      profiler_attributes_by_mode;
    Alcotest.test_case "horizon saturates near max_int" `Quick
      horizon_saturates_near_max_int;
    Alcotest.test_case "run_mtfs: whole frames across a schedule switch"
      `Quick run_mtfs_whole_frames_across_switch;
    Alcotest.test_case "satellite: skip-ahead bit-identical" `Quick
      satellite_skip_equivalence;
    Alcotest.test_case "satellite: multicore skip-ahead bit-identical" `Quick
      multicore_skip_equivalence;
    Alcotest.test_case "run_mtfs mirrors System.run_mtfs" `Quick
      run_mtfs_equivalence;
    Alcotest.test_case "leo_satellite: campaigns identical under turbo" `Slow
      leo_campaigns_turbo_identical;
    Alcotest.test_case "leo_satellite: turbo runs reproducible" `Slow
      leo_turbo_reproducible ]
