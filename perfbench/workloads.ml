(* The benchmark's four workloads: their inputs, made from the workload
   seed; one closed-loop repetition of each (set up, advance the whole
   horizon in one call, observe); and the reference paths the golden
   outputs are proven against.

   Every timing here is host time. The simulated statistics a repetition
   returns are deterministic per seed. *)

open Air
module Engine = Air_exec.Engine
module Fleet = Air_fleet.Fleet
module Loader = Air_config.Loader
module Fstats = Air_obs.Fleet_stats

type kind = Leo_dense | Beacon_sparse | Constellation_fleet | Campaign

let kinds =
  [ ("leo-dense", Leo_dense); ("beacon-sparse", Beacon_sparse);
    ("constellation-fleet", Constellation_fleet); ("campaign", Campaign) ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)
let of_name s = List.assoc_opt s kinds

(* A seed selects one of [variants] input variants, so that every input a
   seed can produce has a recorded golden output ([Golden]). *)
let variants = 16
let variant seed = ((seed mod variants) + variants) mod variants

type length = Full | Short

(* Simulated ticks per repetition. [Short] horizons are the ones the
   golden values are proven on against the reference paths. The campaign
   horizon is each campaign's own (20,000 ticks in the document). *)
let horizon kind length =
  match (kind, length) with
  | Leo_dense, Full -> 13_000_000
  | Leo_dense, Short -> 40_000
  | Beacon_sparse, Full -> 500_000_000
  | Beacon_sparse, Short -> 200_000
  | Constellation_fleet, Full -> 400_000
  | Constellation_fleet, Short -> 4_000
  | Campaign, _ -> 20_000

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)
let leo_file dir = Filename.concat dir "leo_satellite.air"
let fleet_file dir = Filename.concat dir "constellation.air"
let node_file dir = Filename.concat dir "constellation_node.air"

(* Rewrite every action of every script of the partitions [keep] selects. *)
let map_actions ~keep f (cfg : System.config) =
  let setup (ps : System.partition_setup) =
    if not (keep ps) then ps
    else
      { ps with
        scripts =
          Array.map
            (fun (s : Air_pos.Script.t) ->
              { s with
                Air_pos.Script.body = Array.map f s.Air_pos.Script.body })
            ps.scripts }
  in
  { cfg with System.partitions = List.map setup cfg.System.partitions }

(* leo-dense: the variant moves the mode manager's two schedule-switch
   requests (its two timed waits, 4,500 ticks each in the document) to
   2,500..8,500 ticks in steps of one 2,000-tick MTF, so each variant
   switches schedules at different MTF boundaries. The per-tick work is
   unchanged, so throughput does not depend on the seed. *)
let leo_waits v =
  (2500 + (2000 * (v land 3)), 2500 + (2000 * ((v lsr 2) land 3)))

let vary_leo v cfg =
  let w1, w2 = leo_waits v in
  let waits = ref [ w1; w2 ] in
  let cfg =
    map_actions
      ~keep:(fun ps -> ps.System.partition.Air_model.Partition.name = "MGMT")
      (function
        | Air_pos.Script.Timed_wait _ as a -> (
          match !waits with
          | w :: rest ->
            waits := rest;
            Air_pos.Script.Timed_wait w
          | [] -> a)
        | a -> a)
      cfg
  in
  if !waits <> [] then failwith "leo input: MGMT has no two timed waits";
  cfg

(* beacon-sparse: one partition, one full-MTF window of 10,000 ticks, one
   periodic beacon whose work per MTF cycles through 256 seeded amounts in
   [100, 200] ticks (1-2% duty). The amounts come in pairs summing to 300,
   so every seed has the same 1.5% mean duty and the same cost per tick. *)
let beacon_mtf = 10_000

let beacon_work v =
  let rng = Air_sim.Rng.create (1_000 + v) in
  let half = Array.init 128 (fun _ -> 100 + Air_sim.Rng.int rng 101) in
  Array.append half (Array.map (fun w -> 300 - w) half)

let beacon_document v =
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "(air-system\n\
    \  (partitions\n\
    \    (partition (name BCN)\n\
    \      (processes\n\
    \        (process (name beacon) (period %d) (capacity %d) (wcet 201) \
     (priority 5)\n\
    \          (script" beacon_mtf beacon_mtf;
  Array.iter
    (fun w -> Printf.bprintf b "\n            (compute %d) (periodic-wait)" w)
    (beacon_work v);
  Printf.bprintf b
    ")))))\n\
    \  (schedules\n\
    \    (schedule (name solo) (mtf %d)\n\
    \      (requirements (req (partition BCN) (cycle %d) (duration %d)))\n\
    \      (windows (window (partition BCN) (offset 0) (duration %d))))))\n"
    beacon_mtf beacon_mtf beacon_mtf beacon_mtf;
  Buffer.contents b

(* constellation-fleet: the variant gives each satellite's beacon its own
   seeded inter-satellite-link payload of 8..40 bytes, which moves bus
   serialization and arrival instants but not the ticks executed. *)
let node_payload v i =
  let rng = Air_sim.Rng.create ((2_000 + (v * 64)) + i) in
  String.init (8 + Air_sim.Rng.int rng 33) (fun k ->
      Char.chr (97 + ((k + i) mod 26)))

let vary_node v i cfg =
  map_actions
    ~keep:(fun _ -> true)
    (function
      | Air_pos.Script.Send_queuing (port, _) ->
        Air_pos.Script.Send_queuing (port, node_payload v i)
      | a -> a)
    cfg

(* Domains the fleet runs on. One, not min(2, nproc): on a shared 2-vCPU
   host the second domain's time goes to cross-vCPU wake-ups at the
   fleet's 100,000 barrier crossings (1.2-1.9 s per repetition against
   0.8 s on one domain) and its run-to-run spread (0.32) is wider than any
   bound the benchmark may set. The fingerprint is the same for every
   domain count; the golden proofs run 1 and 2 domains. *)
let fleet_domains = 1

(* campaign: each campaign of the document runs with a seed derived from
   the workload seed and its own. *)
let campaign_seed ~seed (spec : Air_faults.Campaign.spec) =
  Hashtbl.hash (seed, spec.Air_faults.Campaign.seed)

(* --- observed outputs ------------------------------------------------- *)

(* The observable state of one module, one line per observable (the
   single-module counterpart of [Fleet.fingerprint_text]), digested in
   64 KiB chunks so a long trace is never held as one string. *)
let system_digest sys =
  let b = Buffer.create 65536 and digest = ref "" in
  let flush () =
    digest := Digest.string (!digest ^ Buffer.contents b);
    Buffer.clear b
  in
  let ppf =
    Format.make_formatter
      (fun s pos len ->
        Buffer.add_substring b s pos len;
        if Buffer.length b >= 65536 then flush ())
      ignore
  in
  Format.fprintf ppf "now=%d halt=%s hm=%d@." (System.now sys)
    (match System.halted sys with None -> "-" | Some r -> r)
    (Hm.error_count (System.hm sys));
  List.iter
    (fun (t, p, d) ->
      Format.fprintf ppf "violation %d %a %d@." t Air_model.Ident.Process_id.pp
        p d)
    (System.violations sys);
  List.iter
    (fun pid ->
      Format.fprintf ppf "mode %a=%a@." Air_model.Ident.Partition_id.pp pid
        Air_model.Partition.pp_mode
        (System.partition_mode sys pid))
    (System.partition_ids sys);
  List.iter
    (fun (k, n) -> Format.fprintf ppf "event %s=%d@." k n)
    (System.event_counts sys);
  Air_sim.Trace.iter
    (fun t ev -> Format.fprintf ppf "trace %d %a@." t Air_model.Event.pp ev)
    (System.trace sys);
  Format.fprintf ppf "telemetry %s@."
    (Digest.to_hex
       (Digest.string
          (Air_obs.Telemetry.to_json (System.telemetry_frames sys))));
  Format.pp_print_flush ppf ();
  flush ();
  Digest.to_hex !digest

(* --- one repetition ---------------------------------------------------- *)

type env = {
  dir : string;  (** Directory of the input documents. *)
  seed : int;
  domains : int;  (** Fleet domains. *)
  recorder : Spans.t option;  (** Traced run: keep spans. *)
  profile : bool;  (** Traced run: attach [Exec.Profiler]. *)
  mode : Engine.mode;  (** [Adaptive]; [Per_tick] for the reference. *)
}

type rep = {
  run_s : float;  (** The timed advance (a campaign round: all of it). *)
  ticks : int;  (** Module-ticks advanced, baseline runs included. *)
  campaigns : int;
  clean : bool;  (** No halt; every campaign verdict contained. *)
  output : string;  (** The output checked against [Golden]. *)
  heap_words : int;
      (** [Gc.top_heap_words] right after the timed advance, before the
          output is checked. *)
  layers : (string * float) list;  (** Per-layer values of this rep. *)
}

let span env = Spans.span env.recorder

let gc_around f =
  let m0 = Gc.minor_words () and c0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = f () in
  (r, Gc.minor_words () -. m0, (Gc.quick_stat ()).Gc.major_collections - c0)

let top_heap () = (Gc.quick_stat ()).Gc.top_heap_words

let ratio a b = if b = 0. then 0. else a /. b

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The number following ["key":] in a one-line JSON document, searched
   from the first occurrence of [after] (the profiler and fleet-stats
   documents expose some totals only there). 0 when absent, so a renamed
   field reads as an unmeasured layer instead of failing the run. *)
let json_number ?(after = "") json key =
  let find sub from =
    let n = String.length sub and m = String.length json in
    let rec go i =
      if i + n > m then None
      else if String.sub json i n = sub then Some (i + n)
      else go (i + 1)
    in
    go from
  in
  match Option.bind (find after 0) (find ("\"" ^ key ^ "\":")) with
  | None -> 0.
  | Some start ->
    let stop = ref start in
    while
      !stop < String.length json
      && not (List.mem json.[!stop] [ ','; '}'; ']' ])
    do
      incr stop
    done;
    Option.value ~default:0.
      (float_of_string_opt (String.sub json start (!stop - start)))

let gc_layers ~minor ~major ~ticks =
  [ ("gc.minor_words_per_tick", ratio minor (float ticks));
    ("gc.major_collections", float major) ]

let obs_layers systems =
  [ ( "obs.trace_events",
      List.fold_left
        (fun acc s -> acc +. float (Air_sim.Trace.total (System.trace s)))
        0. systems );
    ( "obs.telemetry_frames",
      List.fold_left
        (fun acc s ->
          match System.telemetry s with
          | None -> acc
          | Some t -> acc +. float (Air_obs.Telemetry.total_frames t))
        0. systems ) ]

let exec_counts ~stepped ~skipped ~probes =
  let stepped = float stepped and skipped = float skipped
  and probes = float probes in
  [ ("exec.stepped_ticks", stepped); ("exec.skipped_ticks", skipped);
    ("exec.probes", probes);
    ("exec.skip_share", ratio skipped (stepped +. skipped));
    ("exec.probe_yield", ratio skipped probes) ]

let profiler_layers = function
  | None -> []
  | Some p ->
    let j = Air_exec.Profiler.to_json p in
    let probe_s = json_number ~after:"\"probes\"" j "seconds" in
    [ ( "exec.probe_ns",
        ratio (probe_s *. 1e9) (float (Air_exec.Profiler.probes p)) );
      ("exec.step_self_s", json_number ~after:"\"step\"" j "seconds");
      ("exec.batch_self_s", json_number ~after:"\"batch\"" j "seconds");
      ( "exec.skip_self_s",
        probe_s -. json_number ~after:"\"probes\"" j "wasted_seconds" ) ]

(* leo-dense and beacon-sparse: one module, one [Engine.advance]. *)
let module_setup env ~load =
  let cfg, load_s = span env "Loader.load" load in
  let sys, create_s = span env "System.create" (fun () -> System.create cfg) in
  let profiler =
    if env.profile then Some (Air_exec.Profiler.create ()) else None
  in
  let engine = Engine.create ?profiler ~mode:env.mode sys in
  (sys, engine, profiler, load_s, create_s)

let module_rep env ~load ~ticks =
  let sys, engine, profiler, _, create_s = module_setup env ~load in
  let ((), minor, major), run_s =
    span env "Engine.advance" (fun () ->
        gc_around (fun () -> Engine.advance engine ~ticks))
  in
  let heap_words = top_heap () in
  let output, _ = span env "digest" (fun () -> system_digest sys) in
  let st = Engine.stats engine in
  { run_s; ticks; campaigns = 0;
    clean = System.halted sys = None; output; heap_words;
    layers =
      ("core.system_create_us", create_s *. 1e6)
      :: exec_counts ~stepped:st.Engine.stepped ~skipped:st.Engine.skipped
          ~probes:st.Engine.probes
      @ profiler_layers profiler
      @ gc_layers ~minor ~major ~ticks
      @ obs_layers [ sys ] }

let leo_load env () =
  vary_leo (variant env.seed) (ok "leo" (Loader.load_file (leo_file env.dir)))

let beacon_load doc () = ok "beacon" (Loader.load doc)

(* constellation-fleet: one [Fleet.run] over the whole horizon. *)
let fleet_setup env =
  let fl, load_s =
    span env "Loader.load_fleet_file" (fun () ->
        ok "fleet"
          (Loader.load_fleet_file
             ~instrument:(vary_node (variant env.seed))
             (fleet_file env.dir)))
  in
  let cluster = fl.Loader.fleet_cluster in
  let fleet, create_s =
    span env "Fleet.create" (fun () ->
        Fleet.create ~domains:env.domains cluster)
  in
  (cluster, fleet, load_s, create_s)

let fleet_layers fleet cluster ~horizon =
  let s = Fleet.stats fleet in
  let shards = List.init (Fstats.domains s) (Fstats.shard s) in
  let sum f = List.fold_left (fun acc sh -> acc + f sh) 0 shards in
  let top f = List.fold_left (fun acc sh -> Float.max acc (f sh)) 0. shards in
  let windows = Fstats.windows s and cs = Cluster.stats cluster in
  [ ("fleet.windows", float windows);
    ("fleet.null_windows", float (sum (fun sh -> sh.Fstats.sh_null_windows)));
    ("fleet.ticks_per_window", ratio (float horizon) (float windows));
    ("fleet.forced_drains", float (sum (fun sh -> sh.Fstats.sh_forced)));
    ("fleet.replayed_sends", json_number (Fstats.to_json s) "replayed");
    ("fleet.blocked_s_max", top (fun sh -> sh.Fstats.sh_blocked_s));
    ( "fleet.shard_stepped_max",
      top (fun sh -> float sh.Fstats.sh_stepped) );
    ("cluster.transferred", float cs.Cluster.transferred);
    ("cluster.dropped", float cs.Cluster.dropped) ]
  @ exec_counts
      ~stepped:(sum (fun sh -> sh.Fstats.sh_stepped))
      ~skipped:(sum (fun sh -> sh.Fstats.sh_skipped))
      ~probes:0

let fleet_rep env ~horizon =
  let cluster, fleet, _, create_s = fleet_setup env in
  let ((), minor, major), run_s =
    Fun.protect
      ~finally:(fun () -> Fleet.close fleet)
      (fun () ->
        span env "Fleet.run" (fun () ->
            gc_around (fun () -> Fleet.run fleet ~ticks:horizon)))
  in
  let heap_words = top_heap () in
  let output, _ = span env "digest" (fun () -> Fleet.fingerprint cluster) in
  let systems = Array.to_list (Cluster.systems cluster) in
  (* The loader builds the modules itself; a traced run times one build
     of the template on its own. *)
  let create_us =
    match env.recorder with
    | None -> []
    | Some _ ->
      let cfg =
        vary_node (variant env.seed) 0
          (ok "node" (Loader.load_file (node_file env.dir)))
      in
      let _, d = span env "System.create" (fun () -> System.create cfg) in
      [ ("core.system_create_us", d *. 1e6) ]
  in
  let ticks = horizon * List.length systems in
  { run_s; ticks; campaigns = 0;
    clean = List.for_all (fun s -> System.halted s = None) systems;
    output; heap_words;
    layers =
      (("fleet.create_ms", create_s *. 1e3) :: create_us)
      @ fleet_layers fleet cluster ~horizon
      @ gc_layers ~minor ~major ~ticks
      @ obs_layers systems }

(* The sequential reference for the fleet: [Cluster.run], no [Fleet]. *)
let fleet_reference env ~horizon =
  let fl =
    ok "fleet"
      (Loader.load_fleet_file
         ~instrument:(vary_node (variant env.seed))
         (fleet_file env.dir))
  in
  Cluster.run fl.Loader.fleet_cluster ~ticks:horizon;
  Fleet.fingerprint fl.Loader.fleet_cluster

(* campaign: the document's campaigns, each [Faults.Engine.execute] (run
   plus fault-free baseline) then [Oracle.check]. *)
type campaign_input = {
  config : System.config;
  specs : Air_faults.Campaign.spec list;
}

let campaign_setup env =
  let (config, specs), load_s =
    span env "Loader.load_file" (fun () ->
        ( ok "leo" (Loader.load_file (leo_file env.dir)),
          ok "campaigns" (Loader.load_campaigns_file (leo_file env.dir)) ))
  in
  let _, create_s =
    span env "System.create" (fun () -> System.create config)
  in
  ({ config; specs }, load_s, create_s)

let campaign_rep env input =
  let creates = ref [] in
  let make () =
    let sys, d =
      span env "System.create" (fun () -> System.create input.config)
    in
    creates := d :: !creates;
    Air_faults.Engine.Module sys
  in
  let turbo = env.mode <> Engine.Per_tick in
  let run_one spec =
    let spec =
      { spec with Air_faults.Campaign.seed = campaign_seed ~seed:env.seed spec }
    in
    let run, exec_s =
      span env "Faults.Engine.execute" (fun () ->
          Air_faults.Engine.execute ~turbo ~make spec)
    in
    let verdict, oracle_s =
      span env "Oracle.check" (fun () -> Air_faults.Oracle.check run)
    in
    (spec, run, verdict, exec_s, oracle_s)
  in
  let (results, minor, major), run_s =
    span env "campaign.round" (fun () ->
        gc_around (fun () -> List.map run_one input.specs))
  in
  let heap_words = top_heap () in
  let ticks =
    List.fold_left
      (fun acc (spec, _, _, _, _) ->
        acc + (2 * spec.Air_faults.Campaign.horizon))
      0 results
  in
  let failed =
    List.filter_map
      (fun (spec, _, v, _, _) ->
        if Air_faults.Oracle.passed v then None
        else Some spec.Air_faults.Campaign.name)
      results
  in
  let applied =
    List.fold_left
      (fun acc (_, run, _, _, _) ->
        acc
        + List.length
            (List.filter
               (fun o ->
                 o.Air_faults.Engine.applied = Air_faults.Engine.Applied)
               run.Air_faults.Engine.outcomes))
      0 results
  in
  let systems =
    List.concat_map
      (fun (_, run, _, _, _) ->
        [ Air_faults.Engine.system run; Air_faults.Engine.baseline_system run ])
      results
  in
  let n = List.length results in
  let pick f = List.map f results in
  { run_s; ticks; campaigns = n; clean = failed = []; heap_words;
    output =
      (if failed = [] then "contained"
       else "uncontained: " ^ String.concat "," failed);
    layers =
      [ ("core.system_create_us", median !creates *. 1e6);
        ("faults.execute_ms", median (pick (fun (_, _, _, e, _) -> e)) *. 1e3);
        ("faults.oracle_us", median (pick (fun (_, _, _, _, o) -> o)) *. 1e6);
        ("faults.injections_applied", float applied);
        ( "faults.contained_share",
          ratio (float (n - List.length failed)) (float n) )
      ]
      @ gc_layers ~minor ~major ~ticks
      @ obs_layers systems }

(* --- driving a workload ------------------------------------------------ *)

(* Generate the workload's inputs from the seed once; the result runs one
   repetition over the given horizon. *)
let prepare env kind =
  let rep =
    match kind with
    | Leo_dense ->
      fun sp -> module_rep env ~load:(leo_load env) ~ticks:(horizon kind sp)
    | Beacon_sparse ->
      let doc = beacon_document (variant env.seed) in
      fun sp -> module_rep env ~load:(beacon_load doc) ~ticks:(horizon kind sp)
    | Constellation_fleet -> fun sp -> fleet_rep env ~horizon:(horizon kind sp)
    | Campaign ->
      let input, _, _ = campaign_setup env in
      fun _ -> campaign_rep env input
  in
  fun sp -> fst (span env "repetition" (fun () -> rep sp))

(* One set-up — load plus build, before the first tick — discarded;
   returns the host seconds of the load and of the build. *)
let setup env kind =
  fst
    (span env "setup" (fun () ->
         match kind with
         | Leo_dense ->
           let _, _, _, l, c = module_setup env ~load:(leo_load env) in
           (l, c)
         | Beacon_sparse ->
           let doc = beacon_document (variant env.seed) in
           let _, _, _, l, c = module_setup env ~load:(beacon_load doc) in
           (l, c)
         | Constellation_fleet ->
           let _, fleet, l, c = fleet_setup env in
           Fleet.close fleet;
           (l, c)
         | Campaign ->
           let _, l, c = campaign_setup env in
           (l, c)))

(* The outputs of the reference paths, labelled: the Per_tick engine for
   one module; sequential [Cluster.run] and [Fleet] at 1 and 2 domains for
   the fleet; per-tick campaign execution for the campaigns. *)
let references env kind sp =
  let per_tick () =
    (prepare { env with mode = Engine.Per_tick } kind sp).output
  in
  match kind with
  | Leo_dense | Beacon_sparse | Campaign -> [ ("per-tick", per_tick ()) ]
  | Constellation_fleet ->
    let at domains =
      (fleet_rep { env with domains } ~horizon:(horizon kind sp)).output
    in
    [ ("Cluster.run", fleet_reference env ~horizon:(horizon kind sp));
      ("Fleet, 1 domain", at 1); ("Fleet, 2 domains", at 2) ]

(* Counts that must not depend on whether the run is traced. *)
let count_keys =
  [ "exec.stepped_ticks"; "exec.skipped_ticks"; "exec.probes";
    "fleet.windows"; "fleet.null_windows"; "fleet.forced_drains";
    "fleet.replayed_sends"; "fleet.shard_stepped_max";
    "cluster.transferred"; "cluster.dropped" ]

let counts rep =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (List.assoc_opt k rep.layers))
    count_keys
