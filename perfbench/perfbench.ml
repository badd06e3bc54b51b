(* The AIR benchmark program (see README.md in this directory).

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--revision REV]
     perfbench --record-golden

   A run is a closed loop: one repetition (set up, advance the workload's
   whole horizon in one call, check the output against its golden value)
   after another until [--seconds] have passed. The last line of standard
   output is one JSON object: correct, attempted, failed and the metrics —
   the end-to-end ones untraced, the per-layer ones traced. The line
   before it stamps the run. *)

module W = Workloads

let end_to_end_units =
  [ ("setup_s", "s"); ("sim_ticks_per_s", "1/s"); ("peak_heap_mb", "MB") ]

let per_layer_units =
  [ ("config.load_ms", "ms"); ("core.system_create_us", "us");
    ("fleet.create_ms", "ms"); ("ladder.pmk_tick_ns", "ns");
    ("ladder.pmk_mc1_tick_ns", "ns"); ("ladder.pal_announce_ns", "ns");
    ("ladder.step_bare_ns", "ns"); ("ladder.step_telemetry_ns", "ns");
    ("ladder.step_recorder_ns", "ns"); ("ladder.step_causal_ns", "ns");
    ("ladder.step_contention_ns", "ns"); ("ladder.step_2lanes_ns", "ns");
    ("ipc.sampling_rw_ns", "ns"); ("ipc.queuing_rw_ns", "ns");
    ("spatial.charge_ns", "ns"); ("exec.stepped_ticks", "count");
    ("exec.skipped_ticks", "count"); ("exec.probes", "count");
    ("exec.skip_share", "ratio"); ("exec.probe_yield", "ticks/probe");
    ("exec.probe_ns", "ns"); ("exec.step_self_s", "s");
    ("exec.batch_self_s", "s"); ("exec.skip_self_s", "s");
    ("fleet.windows", "count"); ("fleet.null_windows", "count");
    ("fleet.ticks_per_window", "ticks"); ("fleet.forced_drains", "count");
    ("fleet.replayed_sends", "count"); ("fleet.blocked_s_max", "s");
    ("fleet.shard_stepped_max", "ticks"); ("cluster.transferred", "count");
    ("cluster.dropped", "count"); ("faults.execute_ms", "ms");
    ("faults.oracle_us", "us"); ("faults.injections_applied", "count");
    ("faults.contained_share", "ratio"); ("gc.minor_words_per_tick", "words");
    ("gc.major_collections", "count"); ("obs.trace_events", "count");
    ("obs.telemetry_frames", "count"); ("campaigns_per_s", "1/s");
    ("failed_ratio", "ratio"); ("host.slowdown", "ratio");
    ("trace.sim_ticks_per_s", "1/s");
    ("trace.overhead_share", "ratio") ]

(* Paths relative to the root of the checkout perfbench runs in. *)
let inputs = "perfbench/inputs"
let out = ".bench_out"

(* Set-ups timed per run for [setup_s]. *)
let setup_samples = 31

(* Share of a traced run given to the ladder. *)
let ladder_share = 0.25

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_float v) unit)
          metrics))

let stamp ~kind ~seed ~seconds ~trace ~revision ~domains =
  let cores = Domain.recommended_domain_count () in
  Printf.sprintf
    "{\"revision\": %S, \"nproc\": %d, \"ocaml\": %S, \"workload\": %S, \
     \"seed\": %d, \"variant\": %d, \"horizon\": %d, \"engine\": \
     \"adaptive\", \"lanes\": 1, \"domains\": %d, \"trace\": %b, \
     \"seconds\": %s}"
    revision cores Sys.ocaml_version (W.name kind) seed (W.variant seed)
    (W.horizon kind W.Full)
    (if kind = W.Constellation_fleet then domains else 1)
    trace (json_float seconds)

(* The heap peak of the workload itself: the smallest of the repetitions'
   samples, taken before any output check of the run could raise it. *)
let peak_heap_mb reps =
  match List.map (fun (r : W.rep) -> r.W.heap_words) reps with
  | [] -> 0.
  | w :: ws -> float (List.fold_left min w ws * (Sys.word_size / 8)) /. 1048576.

(* Attempts and failures of one run. A failure is an exception, a halt, an
   uncontained verdict or an output differing from its golden value. *)
type tally = { mutable attempted : int; mutable failed : int }

let attempt tally kind ~seed ~length f =
  tally.attempted <- tally.attempted + 1;
  let horizon = W.horizon kind length in
  let expected = Golden.expected kind ~variant:(W.variant seed) ~horizon in
  match f () with
  | exception e ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    None
  | (r : W.rep) ->
    if not (r.W.clean && Some r.W.output = expected) then begin
      tally.failed <- tally.failed + 1;
      Printf.eprintf
        "perfbench: %s seed %d horizon %d: output %s (clean %b), golden %s\n%!"
        (W.name kind) seed horizon r.W.output r.W.clean
        (Option.value ~default:"none" expected)
    end;
    Some r

(* Repetitions until [deadline], at least one. *)
let loop ~deadline step =
  let reps = ref [] in
  while !reps = [] || Spans.now () < deadline do
    reps := step () :: !reps
  done;
  List.filter_map Fun.id (List.rev !reps)

(* A closed loop of repetitions over [seconds]. A host-speed sample sits
   between consecutive repetitions, and each repetition carries the scale
   to reference seconds from the samples around it ([Host]). The set-up
   samples are spread evenly across the same interval (topped up at the
   end), each scaled by the host sample just before it. Returns the
   scaled repetitions and the scaled (load, build) times. *)
let measure env kind ~seconds step =
  let start = Spans.now () and cal = ref (Host.sample ()) and setups = ref [] in
  let catch_up due =
    while List.length !setups < due do
      let load, build = W.setup env kind
      and scale = Host.scale ~before:!cal ~after:!cal in
      setups := (load *. scale, build *. scale) :: !setups
    done
  in
  let reps =
    loop ~deadline:(start +. seconds) (fun () ->
        let before = !cal in
        let r = step () in
        cal := Host.sample ();
        catch_up
          (int_of_float
             ((Spans.now () -. start) /. seconds *. float setup_samples));
        Option.map (fun r -> (r, Host.scale ~before ~after:!cal)) r)
  in
  catch_up setup_samples;
  (reps, List.split !setups)

(* Module-ticks per reference second of a scaled repetition. *)
let rate ((r : W.rep), scale) = float r.W.ticks /. (r.W.run_s *. scale)

let median_rate reps = W.median (List.map rate reps)

let untraced env kind ~seconds tally =
  let rep = W.prepare env kind in
  let seed = env.W.seed in
  ignore (attempt tally kind ~seed ~length:W.Short (fun () -> rep W.Short));
  let reps, (loads, builds) =
    measure env kind ~seconds (fun () ->
        attempt tally kind ~seed ~length:W.Full (fun () -> rep W.Full))
  in
  [ ("setup_s", W.median (List.map2 ( +. ) loads builds));
    ("sim_ticks_per_s", median_rate reps);
    ("peak_heap_mb", peak_heap_mb (List.map fst reps)) ]

(* The ladder runs first, on a compacted heap, so the workload's garbage
   does not weigh on it; then untraced and traced repetitions alternate,
   giving the tracing overhead and the counts the traced repetitions must
   reproduce exactly. *)
let traced env kind ~seconds ~stamp tally =
  let seed = env.W.seed in
  let spans = Spans.create () in
  let tenv = { env with W.recorder = Some spans; profile = true } in
  let start = Spans.now () in
  Gc.compact ();
  let ladder =
    Ladder.rows ~budget:(seconds *. ladder_share)
      (W.ok "leo" (Air_config.Loader.load_file (W.leo_file env.W.dir)))
  in
  let plain = W.prepare env kind and with_trace = W.prepare tenv kind in
  ignore (attempt tally kind ~seed ~length:W.Short (fun () -> plain W.Short));
  let pairs, (loads, _) =
    measure tenv kind ~seconds:(start +. seconds -. Spans.now ()) (fun () ->
        let p =
          attempt tally kind ~seed ~length:W.Full (fun () -> plain W.Full)
        in
        let t =
          attempt tally kind ~seed ~length:W.Full (fun () -> with_trace W.Full)
        in
        match (p, t) with Some p, Some t -> Some (p, t) | _ -> None)
  in
  let bases = List.map (fun ((p, _), s) -> (p, s)) pairs
  and scaled = List.map (fun ((_, t), s) -> (t, s)) pairs in
  List.iter
    (fun ((p, t), _) ->
      if W.counts t <> W.counts p then begin
        tally.failed <- tally.failed + 1;
        prerr_endline "perfbench: traced counts differ from untraced ones"
      end)
    pairs;
  (* Times in reference units, like the end-to-end metrics. *)
  let layer key =
    let time =
      List.mem (List.assoc key per_layer_units) [ "s"; "ms"; "us"; "ns" ]
    in
    W.median
      (List.filter_map
         (fun ((r : W.rep), s) ->
           Option.map
             (fun v -> if time then v *. s else v)
             (List.assoc_opt key r.W.layers))
         scaled)
  in
  let traced_rate = median_rate scaled and base_rate = median_rate bases in
  let derived =
    [ ("config.load_ms", W.median loads *. 1e3);
      ( "campaigns_per_s",
        W.median
          (List.map
             (fun ((r : W.rep), s) -> float r.W.campaigns /. (r.W.run_s *. s))
             scaled) );
      ("failed_ratio", float tally.failed /. float (max 1 tally.attempted));
      ("host.slowdown", W.median (List.map (fun (_, s) -> 1. /. s) pairs));
      ("trace.sim_ticks_per_s", traced_rate);
      ("trace.overhead_share", W.ratio (base_rate -. traced_rate) base_rate) ]
  in
  (try
     if not (Sys.file_exists out) then Sys.mkdir out 0o755;
     let file =
       Filename.concat out
         (Printf.sprintf "%s-seed%d.spans.json" (W.name kind) seed)
     in
     Out_channel.with_open_text file (fun oc ->
         Out_channel.output_string oc (Spans.to_json ~stamp spans))
   with Sys_error e -> Printf.eprintf "perfbench: spans not written: %s\n%!" e);
  List.map
    (fun (name, _) ->
      match List.assoc_opt name ladder with
      | Some v -> (name, v)
      | None -> (
        match List.assoc_opt name derived with
        | Some v -> (name, v)
        | None -> (name, layer name)))
    per_layer_units

(* Prove every short-horizon golden value against the reference paths,
   then print the golden table as OCaml source. *)
let record_golden dir =
  let domains = W.fleet_domains in
  let ok = ref true and rows = ref [] in
  List.iter
    (fun kind ->
      for v = 0 to W.variants - 1 do
        let env =
          { W.dir; seed = v; domains; recorder = None; profile = false;
            mode = Air_exec.Engine.Adaptive }
        in
        let short = (W.prepare env kind W.Short).W.output in
        List.iter
          (fun (label, out) ->
            if out <> short then begin
              ok := false;
              Printf.eprintf "%s variant %d: %s gives %s, benchmark path %s\n%!"
                (W.name kind) v label out short
            end)
          (W.references env kind W.Short);
        let full = (W.prepare env kind W.Full).W.output in
        rows :=
          (W.name kind, v, W.horizon kind W.Full, full)
          :: (W.name kind, v, W.horizon kind W.Short, short)
          :: !rows;
        Printf.eprintf "%s variant %d recorded\n%!" (W.name kind) v
      done)
    [ W.Leo_dense; W.Beacon_sparse; W.Constellation_fleet ];
  if not !ok then exit 1;
  print_string "let table : (string * int * int * string) list =\n  [ ";
  print_string
    (String.concat ";\n    "
       (List.map
          (fun (w, v, h, d) -> Printf.sprintf "(%S, %d, %d, %S)" w v h d)
          (List.rev !rows)));
  print_string " ]\n"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0.
  and trace = ref (-1) and revision = ref "unknown" and record = ref false in
  let usage =
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 [options]\n\
     perfbench --record-golden"
  in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run");
      ("--revision", Arg.Set_string revision, "REV revision stamp");
      ("--record-golden", Arg.Set record, " print the golden table") ]
  in
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> fail ("unexpected " ^ a)) usage
   with Arg.Bad m | Arg.Help m -> fail m);
  if !record then record_golden inputs
  else begin
    let kind =
      match W.of_name !workload with
      | Some k -> k
      | None -> fail ("unknown workload " ^ !workload)
    in
    let seed = match !seed with Some s -> s | None -> fail "missing --seed" in
    if !seconds <= 0. then fail "--seconds must be positive";
    if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
    if not (Sys.file_exists (W.leo_file inputs)) then
      fail ("no input documents in " ^ inputs);
    let domains = W.fleet_domains in
    let env =
      { W.dir = inputs; seed; domains; recorder = None; profile = false;
        mode = Air_exec.Engine.Adaptive }
    in
    let trace = !trace = 1 and seconds = !seconds in
    let stamp =
      stamp ~kind ~seed ~seconds ~trace ~revision:!revision ~domains
    in
    let tally = { attempted = 0; failed = 0 } in
    let metrics, units =
      if trace then
        (traced env kind ~seconds ~stamp tally, per_layer_units)
      else (untraced env kind ~seconds tally, end_to_end_units)
    in
    Printf.printf "{\"stamp\": %s}\n" stamp;
    print_endline
      (result_line ~correct:(tally.failed = 0) ~attempted:tally.attempted
         ~failed:tally.failed
         (List.map (fun (name, v) -> (name, List.assoc name units, v)) metrics))
  end
