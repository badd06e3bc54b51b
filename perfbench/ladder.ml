(* The per-layer cost ladder: host ns per call of each layer of the tick,
   measured on leo-dense's own tables and configuration. The rows are
   cumulative — each adds one layer to a row before it — so the delta
   between two rows attributes one layer:

     pmk_tick          Pmk.tick (Algorithms 1 and 2)
     pmk_mc1_tick      the same tables through the multicore lane, 1 core
     pal_announce      Pmk.tick + the active PAL's announcement (Alg. 3)
     step_bare         System.step, every observer off: + POS kernel and
                       script interpreter
     step_telemetry    + the document's telemetry
     step_recorder     + a flight recorder
     step_causal       + a causal flow tracker
     step_contention   + the document's contention model
     step_2lanes       + a second lane (cores 2)

   plus the IPC and spatial calls a tick makes on the same document. *)

open Air

(* Rows are measured round-robin — one block of calls per row per round,
   a host sample around each round — so every row sees the same host, and
   each block's ns per call is scaled to reference time ([Host]). A row's
   value is its median block. *)
let measure ~budget rows =
  List.iter (fun (_, block, f) -> for _ = 1 to block do f () done) rows;
  let samples = List.map (fun (name, _, _) -> (name, ref [])) rows in
  let stop = Spans.now () +. budget and rounds = ref 0 in
  while !rounds < 5 || Spans.now () < stop do
    let before = Host.sample () in
    let round =
      List.map
        (fun (_, block, f) ->
          let t0 = Spans.now () in
          for _ = 1 to block do f () done;
          (Spans.now () -. t0) *. 1e9 /. float block)
        rows
    in
    let scale = Host.scale ~before ~after:(Host.sample ()) in
    List.iter2 (fun (_, acc) ns -> acc := (ns *. scale) :: !acc) samples round;
    incr rounds
  done;
  List.map (fun (name, acc) -> (name, Workloads.median !acc)) samples

let rows ~budget (cfg : System.config) =
  let n = List.length cfg.System.partitions in
  let schedules = cfg.System.schedules
  and initial_schedule = cfg.System.initial_schedule in
  let pmk () = Pmk.create ?initial_schedule ~partition_count:n schedules in
  let partition name =
    (List.find
       (fun (ps : System.partition_setup) ->
         ps.System.partition.Air_model.Partition.name = name)
       cfg.System.partitions)
      .System.partition.Air_model.Partition.id
  in
  let pmk_tick =
    let p = pmk () in
    fun () -> ignore (Pmk.tick p)
  in
  let pmk_mc1_tick =
    let p =
      Pmk_mc.create ?initial_schedule ~partition_count:n
        (List.map (Air_model.Multicore.shard ~cores:1) schedules)
    in
    fun () -> ignore (Pmk_mc.tick p)
  in
  let pal_announce =
    let p = pmk () in
    let pals =
      Array.of_list
        (List.map
           (fun (ps : System.partition_setup) ->
             let part = ps.System.partition in
             let pal = Pal.create ~partition:part.Air_model.Partition.id () in
             Array.iteri
               (fun q _ -> Pal.register_deadline pal ~process:q (max_int / 2))
               part.Air_model.Partition.processes;
             pal)
           cfg.System.partitions)
    in
    let announce_to_pos ~now:_ ~elapsed:_ = () in
    fun () ->
      ignore (Pmk.tick p);
      match Pmk.active_partition p with
      | None -> ()
      | Some pid ->
        ignore
          (Pal.announce_ticks
             pals.(Air_model.Ident.Partition_id.index pid)
             ~now:(Pmk.ticks p) ~elapsed:1 ~announce_to_pos)
  in
  let step c =
    let s = System.create c in
    fun () -> System.step s
  in
  let bare =
    { cfg with
      System.telemetry = None; recorder = None; causal = None;
      contention = None; cores = None }
  in
  let telemetry = { bare with System.telemetry = cfg.System.telemetry } in
  let recorder () =
    { telemetry with
      System.recorder = Some (Air_obs.Span.create ~capacity:4096 ()) }
  in
  let causal () =
    { (recorder ()) with
      System.causal = Some (Air_obs.Causal.create ~capacity:4096 ()) }
  in
  let contention () =
    { (causal ()) with System.contention = cfg.System.contention }
  in
  let step_bare = step bare in
  let step_telemetry = step telemetry in
  let step_recorder = step (recorder ()) in
  let step_causal = step (causal ()) in
  let step_contention = step (contention ()) in
  let step_2lanes = step { (contention ()) with System.cores = Some 2 } in
  let router = Air_ipc.Router.create cfg.System.network in
  let msg = Bytes.make 16 'q' in
  let gnc = partition "GNC" and camera = partition "CAMERA"
  and mgmt = partition "MGMT" in
  let sampling_rw () =
    ignore
      (Air_ipc.Router.write_sampling router ~caller:gnc ~port:"ATT_OUT" ~now:0
         msg);
    ignore
      (Air_ipc.Router.read_sampling router ~caller:camera ~port:"ATT_IN" ~now:1)
  in
  let queuing_rw () =
    ignore
      (Air_ipc.Router.send_queuing router ~caller:camera ~port:"FRAMES" ~now:0
         msg);
    ignore
      (Air_ipc.Router.receive_queuing router ~caller:mgmt ~port:"FRAMES_IN")
  in
  let charge =
    match cfg.System.contention with
    | None -> failwith "leo input: no contention model"
    | Some c ->
      (* Roll the window over every 256 charges, as MTF boundaries do, so
         the accounts stay in the within-budget regime of a clean run. *)
      let model = Air_spatial.Contention.create ~partitions:n ~lanes:1 c in
      let k = ref 0 in
      fun () ->
        ignore (Air_spatial.Contention.charge model ~partition:1 ~cost:1);
        incr k;
        if !k land 255 = 0 then Air_spatial.Contention.rollover model ~now:0
  in
  measure ~budget
    [ ("ladder.pmk_tick_ns", 20_000, pmk_tick);
      ("ladder.pmk_mc1_tick_ns", 20_000, pmk_mc1_tick);
      ("ladder.pal_announce_ns", 20_000, pal_announce);
      ("ladder.step_bare_ns", 4_000, step_bare);
      ("ladder.step_telemetry_ns", 4_000, step_telemetry);
      ("ladder.step_recorder_ns", 4_000, step_recorder);
      ("ladder.step_causal_ns", 4_000, step_causal);
      ("ladder.step_contention_ns", 4_000, step_contention);
      ("ladder.step_2lanes_ns", 4_000, step_2lanes);
      ("ipc.sampling_rw_ns", 10_000, sampling_rw);
      ("ipc.queuing_rw_ns", 10_000, queuing_rw);
      ("spatial.charge_ns", 20_000, charge) ]
