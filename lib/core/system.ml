(* The clock-tick executive — top layer of the decomposed system. State
   and lifecycle live in [Runtime], construction in [Boot], script
   interpretation in [Interp]; this module drives the PMK lanes off the
   global clock, announces elapsed time to the active partitions' PALs
   (Algorithm 3), runs the heir process, and exposes observation,
   intervention and fault-injection surfaces. It also provides the
   quiescence and next-event probes the [Air_exec] executive uses for O(1)
   skip-ahead across idle and mid-compute spans. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Air_spatial
open Ident
include Runtime

let create = Boot.create

(* --- The system clock tick --------------------------------------------- *)

(* Temporal-health watchdogs: a frame just closed at the MTF boundary;
   judge it against the watchdog of the schedule it ran under (after a
   mode-based switch the new frame is judged by the new schedule's
   watchdog) and raise one Temporal_degradation error per offending scope —
   at most one module-level error and one per breaching partition per
   frame, so a configured HM action fires exactly once per offending
   frame. *)
let handle_closed_frame t (frame : Air_obs.Telemetry.frame) =
  match t.telemetry with
  | None -> ()
  | Some tel ->
    let wd = Air_obs.Telemetry.watchdog_for tel ~schedule:frame.f_schedule in
    (match Air_obs.Telemetry.breaches wd frame with
    | [] -> ()
    | breaches ->
      let detail scope_breaches =
        Format.asprintf "frame %d: %a" frame.f_index
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
             Air_obs.Telemetry.pp_breach)
          scope_breaches
      in
      let module_breaches, partition_breaches =
        List.partition
          (fun b -> Air_obs.Telemetry.breach_partition b = None)
          breaches
      in
      if module_breaches <> [] then
        report_module_error t Error.Temporal_degradation
          ~detail:(detail module_breaches);
      Array.iteri
        (fun i prt ->
          match
            List.filter
              (fun b -> Air_obs.Telemetry.breach_partition b = Some i)
              partition_breaches
          with
          | [] -> ()
          | mine ->
            report_partition_error t prt Error.Temporal_degradation
              ~detail:(detail mine))
        t.partitions)

(* First-level outcome bookkeeping, once per lane. Under a broadcast
   switch every lane switches at the same boundary; the module-level
   Schedule_switch event is emitted once, from the primary lane. *)
let apply_outcome t ~primary (o : Pmk.tick_outcome) =
  (match o.Pmk.schedule_switched with
  | Some (from, to_) when primary -> emit t (Event.Schedule_switch { from; to_ })
  | Some _ | None -> ());
  (match o.Pmk.context_switch with
  | Some (from, to_) -> emit_context_switch t ~from ~to_
  | None -> ());
  (match o.Pmk.change_action with
  | Some (pid, action) ->
    let prt = prt_of t pid in
    emit t (Event.Change_action { partition = pid; action });
    (* Restart actions apply to partitions running in normal mode
       (Sect. 4.2); a partition still initializing restarts anyway. *)
    (match action with
    | Schedule.No_action -> ()
    | Schedule.Warm_restart_partition ->
      begin_restart t prt Partition.Warm_start
    | Schedule.Cold_restart_partition ->
      begin_restart t prt Partition.Cold_start)
  | None -> ());
  match o.Pmk.frame_closed with
  | Some frame -> handle_closed_frame t frame
  | None -> ()

(* One tick of the partition currently holding a core: complete
   initialization at first dispatch, announce elapsed time to the PAL
   (Algorithm 3) with deadline verification, then let the POS pick the
   heir process and run one tick of its script. *)
let drive_partition t prt ~elapsed =
  (* Partition initialization completes at first dispatch. *)
  (match prt.mode with
  | Partition.Cold_start | Partition.Warm_start -> initialize_partition t prt
  | Partition.Normal | Partition.Idle -> ());
  match prt.mode with
  | Partition.Normal ->
    let tnow = now t in
    (* PAL surrogate clock tick announcement (Algorithm 3): announce
       the elapsed ticks to the POS, then verify deadlines. An injected
       clock-jitter fault suppresses the announcement — the tick is
       lost at the PMK, the running process keeps computing — and the
       withheld ticks are announced as one catch-up burst when the
       jitter window ends (exercising the PAL catch-up path). *)
    if elapsed > 0 && prt.jitter_left > 0 then begin
      prt.jitter_left <- prt.jitter_left - 1;
      prt.jitter_deferred <- prt.jitter_deferred + elapsed
    end
    else if elapsed > 0 || prt.jitter_deferred > 0 then begin
      let elapsed = elapsed + prt.jitter_deferred in
      prt.jitter_deferred <- 0;
      (* [announce_to_pos] is the closure built once at boot; the guard
         around the violation loop keeps the (empty) common case from
         constructing the reporting closure. *)
      match
        Pal.announce_ticks prt.pal ~now:tnow ~elapsed
          ~announce_to_pos:prt.announce_to_pos
      with
      | [] -> ()
      | violations ->
        List.iter
          (fun { Pal.process; deadline } ->
            emit t
              (Event.Deadline_violation
                 { process = prt.pids.(process); deadline });
            report_process_error t prt ~process Error.Deadline_missed
              ~detail:
                (Format.asprintf "deadline %a missed at %a" Time.pp deadline
                   Time.pp tnow))
          violations
    end;
    (* Second scheduling level: the POS selects the heir process and it
       executes one tick of its body — unless the partition owes
       interference stall, in which case the tick is consumed as slowdown
       instead (the contention model's "extra consumed window ticks").
       Stall is only ever consumed when a process is schedulable, so a
       blocked partition does not burn its debt while idle. *)
    if
      Option.is_none t.halt_reason
      && Partition.mode_equal prt.mode Partition.Normal
    then begin
      let q = Kernel.schedule_idx prt.kernel ~now:(now t) in
      if q >= 0 then begin
        match t.contention with
        | None -> Interp.run_task_tick t prt q
        | Some c ->
          let pi = Partition_id.index prt.setup.partition.Partition.id in
          if Contention.stall_pending c ~partition:pi then begin
            Contention.consume_stall c ~partition:pi;
            match t.telemetry with
            | Some tel -> Air_obs.Telemetry.on_throttled tel ~partition:pi
            | None -> ()
          end
          else Interp.run_task_tick t prt q
      end
    end
  | Partition.Idle | Partition.Cold_start | Partition.Warm_start -> ()

(* MTF-boundary window rollover for the contention model. Every
   preemption table carries a tick-0 entry, so the executive's skip-ahead
   never crosses an MTF boundary — boundary ticks always execute through
   [step], in every engine mode, which is what makes this per-tick hook
   sound. It runs after the lane tick (the telemetry frame for the closed
   window is already snapshotted) and before any partition is driven, so
   the boundary tick's charges land in the new window — mirroring the
   boundary-tick-opens-the-new-frame telemetry convention. The new
   window's budgets and co-runner pressure are pushed into the frame
   accumulator here. *)
let contention_rollover t c =
  if Pmk.mtf_position (Pmk_mc.core t.lane 0) = 0 then begin
    let tnow = now t in
    if tnow > Contention.window_start c then begin
      Contention.rollover c ~now:tnow;
      match t.telemetry with
      | None -> ()
      | Some tel ->
        for p = 0 to Array.length t.partitions - 1 do
          Air_obs.Telemetry.set_interference_window tel ~partition:p
            ~budget:(Contention.budget c p)
            ~co_pressure:(Contention.co_runner_pressure c p)
        done
    end
  end

(* The module's combined busy/idle occupancy sample: the one partition
   holding a core, or -1 when every lane idles (validated tables keep at
   most one lane busy under sharded schedules). *)
let occupant t =
  match Pmk_mc.combined_active t.lane with
  | Some p -> Partition_id.index p
  | None -> -1

(* One global clock tick: every lane runs Algorithms 1 and 2, the
   outcomes are applied, then each lane's partition is driven — unless
   applying an outcome halted the module, which freezes the partitions
   from the halt tick on. *)
let step t =
  if Option.is_none t.halt_reason then begin
    let outcomes = Pmk_mc.tick t.lane in
    for core = 0 to Array.length outcomes - 1 do
      apply_outcome t ~primary:(core = 0) outcomes.(core)
    done;
    (match t.telemetry with
    | Some tel -> Air_obs.Telemetry.on_tick_idx tel ~active:(occupant t)
    | None -> ());
    (match t.contention with
    | Some c -> contention_rollover t c
    | None -> ());
    let actives = Pmk_mc.active_partitions t.lane in
    for core = 0 to Array.length actives - 1 do
      match actives.(core) with
      | Some pid when Option.is_none t.halt_reason ->
        (* Lane-local charging: every shared-resource touch made while
           this core's partition is driven debits this lane's account. *)
        (match t.contention with
        | Some c -> Contention.set_lane c core
        | None -> ());
        drive_partition t (prt_of t pid) ~elapsed:outcomes.(core).Pmk.elapsed
      | Some _ | None -> ()
    done
  end

let run t ~ticks =
  for _ = 1 to ticks do
    step t
  done

let run_mtfs_by advance t n =
  let pmk = Pmk_mc.core t.lane 0 in
  (* The running schedule's MTF and the ticks executed within its current
     frame; 0 exactly at a boundary. *)
  let position () =
    let mtf = (Pmk.schedule pmk (Pmk.current_schedule pmk)).Schedule.mtf in
    let executed = Pmk.ticks pmk - Pmk.last_schedule_switch pmk + 1 in
    (mtf, ((executed mod mtf) + mtf) mod mtf)
  in
  for _ = 1 to n do
    match position () with
    | _, 0 ->
      (* Exactly at a boundary a pending mode-based switch becomes
         effective on the next tick, possibly to a schedule with a
         different MTF: execute the boundary tick first, then finish the
         frame under the schedule that is actually running (running the
         old [mtf] blindly would mis-size the frame). *)
      advance 1;
      let mtf, into = position () in
      if into > 0 then advance (mtf - into)
    | mtf, into -> advance (mtf - into)
  done

let run_mtfs t n = run_mtfs_by (fun ticks -> run t ~ticks) t n

let halted t = t.halt_reason

(* --- Quiescence and skip-ahead (the [Air_exec] executive) --------------- *)

(* A span of ticks is quiet — skippable without observable difference —
   when every partition currently holding a core is either idle or
   mid-compute under per-tick execution. Idle: parked in idle mode, or in
   normal mode with no schedulable process. Mid-compute: in normal mode
   its steady heir (the running process the POS is certain to re-pick,
   {!Kernel.steady_heir}) sits inside a [Compute] with at least two ticks
   left and no mailbox delivery to consume, so each tick only decrements
   [compute_left] and charges the compute cost. Either way the partition
   must owe no clock-jitter bookkeeping and no interference stall (a
   partition in slowdown burns real window ticks). Partitions not holding
   a core are never driven per-tick, so they cannot constrain the span;
   starting modes initialize at the dispatch tick itself, which is always
   an event tick. *)

(* The running process a normal-mode partition would keep computing on
   every next tick, or -1. State-only: whether the span's compute charges
   are safe is [compute_headroom]'s question. *)
let computing_heir prt =
  let q = Kernel.steady_heir prt.kernel in
  if
    q >= 0
    && prt.tasks.(q).compute_left >= 2
    && not (Intra.has_delivery prt.intra ~process:q)
  then q
  else -1

(* How many compute ticks the partition can consume before a charge could
   blow its budget or arm the stall curve ([max_int] when computation is
   free or no contention model is configured). *)
let compute_headroom t prt =
  match t.contention with
  | None -> max_int
  | Some c ->
    Contention.safe_charges c
      ~partition:(Partition_id.index prt.setup.partition.Partition.id)
      ~cost:(Contention.configuration c).Contention.compute_cost

(* The earliest of [acc], a blocked process' wake/release instant and the
   tick after the partition's earliest PAL deadline (verification pops
   deadlines strictly before [now], so a deadline [d] first raises a
   violation at [d + 1]). [Time.add] saturates at infinity, so an empty
   deadline store contributes no bound. *)
let pending_bound prt acc =
  Time.min
    (Time.min acc (Time.add (Pal.min_deadline prt.pal) 1))
    (Kernel.next_wake prt.kernel)

(* One partition holding a core, folded into the running bound [acc]
   (>= 0): -1 when it is not quiescent, otherwise the earliest of its
   [pending_bound] and, mid-compute, the tick that consumes its last
   compute tick or the one that would take its charges past the safe
   headroom. Quiescence and the bound share one [computing_heir] scan and
   one [compute_headroom]. *)
let prt_quiet_bound t prt acc =
  match prt.mode with
  | Partition.Idle -> acc
  | Partition.Cold_start | Partition.Warm_start -> -1
  | Partition.Normal ->
    if
      prt.jitter_left <> 0 || prt.jitter_deferred <> 0
      || (match t.contention with
         | None -> false
         | Some c ->
           Contention.stall_pending c
             ~partition:(Partition_id.index prt.setup.partition.Partition.id))
    then -1
    else if not (Kernel.has_schedulable prt.kernel) then
      (* No heir, so no compute term. *)
      pending_bound prt acc
    else begin
      let q = computing_heir prt in
      if q < 0 then -1
      else begin
        let safe = compute_headroom t prt in
        if safe < 1 then -1
        else begin
          let left = prt.tasks.(q).compute_left in
          Time.min (pending_bound prt acc)
            (now t + if safe >= left then left else safe + 1)
        end
      end
    end

let rec lanes_quiet_bound t actives n i acc =
  if i >= n || acc < 0 then acc
  else
    let acc =
      match actives.(i) with
      | None -> acc
      | Some pid -> prt_quiet_bound t (prt_of t pid) acc
    in
    lanes_quiet_bound t actives n (i + 1) acc

let quiet_bound t =
  (* Evaluated after every stepped tick, so it must not allocate: it scans
     the lanes' actives buffer via a top-level loop. *)
  let actives = Pmk_mc.active_partitions t.lane in
  lanes_quiet_bound t actives (Array.length actives) 0 Time.infinity

(* Batch-advance the global clock across a quiet span. The caller (the
   executive) guarantees [quiet_bound] is non-negative and that no lane
   preemption, partition event, telemetry frame boundary or injection
   falls inside the span; under that contract the skip is bit-identical
   to [ticks] per-tick steps. Each mid-compute partition progresses its
   computation by [ticks] and makes one [ticks]-sized compute charge
   (accounts are additive and the span stays within the safe headroom),
   debiting its lane as [step] does. *)
let skip t ~ticks =
  if ticks > 0 then begin
    let actives = Pmk_mc.active_partitions t.lane in
    for core = 0 to Array.length actives - 1 do
      match actives.(core) with
      | None -> ()
      | Some pid ->
        let prt = prt_of t pid in
        let q = computing_heir prt in
        if q >= 0 then begin
          let task = prt.tasks.(q) in
          task.compute_left <- task.compute_left - ticks;
          (match t.contention with
          | Some c -> Contention.set_lane c core
          | None -> ());
          charge_compute_ticks t prt ~ticks
        end
    done;
    Pmk_mc.skip t.lane ~ticks;
    (* Mirror of the combined occupancy sample in [step]. *)
    match t.telemetry with
    | Some tel ->
      Air_obs.Telemetry.on_ticks_idx tel ~active:(occupant t) ~count:ticks
    | None -> ()
  end

(* --- Observation -------------------------------------------------------- *)

let trace t = t.trace
let lane t = t.lane
let pmk t = Pmk_mc.core t.lane 0
let cores t = Pmk_mc.core_count t.lane
let hm t = t.hm
let router t = t.router
let protection t = t.protection
let metrics t = t.metrics

(* Bounded-retention drop counts surface as gauges so a snapshot taken
   from a truncated recorder or flow tracker says so. Refreshed lazily at
   snapshot time — the instruments are get-or-create and the hot path
   never touches them. *)
let metrics_snapshot t =
  (match t.cfg.recorder with
  | None -> ()
  | Some r ->
    Air_obs.Metrics.set
      (Air_obs.Metrics.gauge t.metrics "recorder.dropped_spans")
      (Air_obs.Span.dropped r));
  (match t.cfg.causal with
  | None -> ()
  | Some c ->
    Air_obs.Metrics.set
      (Air_obs.Metrics.gauge t.metrics "causal.dropped_records")
      (Air_obs.Causal.dropped c));
  Air_obs.Metrics.snapshot t.metrics
(* Kinds seen so far, sorted by label. *)
let event_counts t =
  let seen = ref [] in
  Array.iteri
    (fun k n -> if n > 0 then seen := (Event.kind_label k, n) :: !seen)
    t.event_counts;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !seen

let metrics_report t =
  Air_obs.Report.to_string ~events:(event_counts t) (metrics_snapshot t)

let metrics_json t =
  Air_obs.Report.to_json ~events:(event_counts t) (metrics_snapshot t)

let recorder t = t.cfg.recorder
let causal t = t.cfg.causal
let telemetry t = t.telemetry
let contention t = t.contention

let telemetry_frames t =
  match t.telemetry with
  | None -> []
  | Some tel -> Air_obs.Telemetry.frames tel

(* Close the final partial frame so the tail of a run that does not end
   exactly on an MTF boundary still reaches the exported frame list.
   Watchdogs are deliberately not evaluated on a flushed partial frame. *)
let telemetry_flush t =
  match t.telemetry with
  | None -> None
  | Some tel -> Air_obs.Telemetry.flush tel ~now:(now t + 1)

let spans t =
  match t.cfg.recorder with
  | None -> []
  | Some r -> Air_obs.Span.spans r

let track_names t =
  (-1, "AIR module")
  :: Array.to_list
       (Array.map
          (fun prt ->
            ( Partition_id.index prt.setup.partition.Partition.id,
              prt.setup.partition.Partition.name ))
          t.partitions)

let flow_entries t =
  match t.cfg.causal with
  | None -> []
  | Some c -> Air_obs.Causal.entries c

let export_meta t =
  (match t.cfg.recorder with
  | None -> []
  | Some r -> [ ("dropped_spans", Air_obs.Span.dropped r) ])
  @
  match t.cfg.causal with
  | None -> []
  | Some c -> [ ("dropped_flow_records", Air_obs.Causal.dropped c) ]

let chrome_trace t =
  let spans =
    match t.cfg.recorder with
    | None -> []
    | Some r ->
      Air_obs.Span.spans r @ Air_obs.Span.open_spans r ~now:(now t)
  in
  let events =
    List.rev
      (Trace.fold
         (fun acc time ev ->
           (time, Event.label ev, Format.asprintf "%a" Event.pp ev) :: acc)
         [] t.trace)
  in
  Air_obs.Trace_export.to_chrome ~tracks:(track_names t) ~events
    ~flows:(flow_entries t) ~meta:(export_meta t) spans

let partition_count t = Array.length t.partitions

let partition_ids t =
  Array.to_list
    (Array.map (fun prt -> prt.setup.partition.Partition.id) t.partitions)

let partition_mode t pid = (prt_of t pid).mode
let kernel_of t pid = (prt_of t pid).kernel
let pal_of t pid = (prt_of t pid).pal
let intra_of t pid = (prt_of t pid).intra

let region_of t pid section =
  match Protection.map_of t.protection pid with
  | None -> None
  | Some map ->
    List.find_opt
      (fun (r : Memory.region) -> Memory.section_equal r.section section)
      map.Memory.regions

let regions_of t pid =
  match Protection.map_of t.protection pid with
  | None -> []
  | Some map -> map.Memory.regions

let violations t =
  List.rev
    (Trace.fold
       (fun acc time ev ->
         match ev with
         | Event.Deadline_violation { process; deadline } ->
           (time, process, deadline) :: acc
         | _ -> acc)
       [] t.trace)

let activity t =
  List.rev
    (Trace.fold
       (fun acc time ev ->
         match ev with
         | Event.Context_switch { to_; _ } -> (time, to_) :: acc
         | _ -> acc)
       [] t.trace)

(* --- Operator interventions -------------------------------------------- *)

let with_process t pid ~name f =
  let prt = prt_of t pid in
  match Kernel.find_by_name prt.kernel name with
  | None -> Error (Printf.sprintf "no process named %S" name)
  | Some q -> f prt q

let start_process t pid ~name =
  with_process t pid ~name (fun prt q ->
      match start_process_internal t prt q ~delay:Time.zero with
      | Ok () -> Ok ()
      | Error e -> Error (Format.asprintf "%a" Kernel.pp_op_error e))

let stop_process t pid ~name =
  with_process t pid ~name (fun prt q ->
      match Kernel.stop prt.kernel q with
      | Ok () -> Ok ()
      | Error e -> Error (Format.asprintf "%a" Kernel.pp_op_error e))

let request_schedule t id =
  match Pmk_mc.request_schedule_switch t.lane id with
  | Ok () ->
    emit t (Event.Schedule_switch_request { by = None; target = id });
    Ok ()
  | Error Pmk.Same_schedule ->
    emit t (Event.Schedule_switch_request { by = None; target = id });
    Ok ()
  | Error (Pmk.No_such_schedule i) ->
    Error (Printf.sprintf "no schedule with index %d" i)

let restart_partition t pid mode =
  let prt = prt_of t pid in
  match mode with
  | Partition.Normal -> Error "cannot force a partition directly to normal"
  | Partition.Idle ->
    shutdown_partition t prt;
    Ok ()
  | Partition.Cold_start | Partition.Warm_start ->
    begin_restart t prt mode;
    Ok ()

let deliver_remote ?cid t ~port msg =
  match Router.inject ?cid t.router ~port ~now:(now t) msg with
  | Router.Inject_bad_port ->
    Error (Printf.sprintf "no destination port %S (or bad message size)" port)
  | Router.Inject_overflow ->
    emit t (Event.Port_overflow { port });
    Ok ()
  | Router.Injected ->
    emit t (Event.Port_send { port; bytes = Bytes.length msg });
    notify_port_delivery t [ port ];
    Ok ()

let drain_remote t ~port = Router.drain t.router ~port ~now:(now t)
let remote_pending t ~port = Router.pending t.router ~port

let note_flow_perturb t ~what cid =
  match t.cfg.causal with
  | None -> ()
  | Some c -> Air_obs.Causal.perturb c ~now:(now t) ~what cid

let inject_module_error t code ~detail = report_module_error t code ~detail

(* --- Fault injection ---------------------------------------------------- *)

let note_fault t ~label = emit t (Event.Fault_injected { label })

let inject_memory_access t pid ~access ~address =
  let prt = prt_of t pid in
  let result, cost =
    Protection.access_costed t.protection ~partition:pid
      ~level:Memory.Application ~access address
  in
  (match t.contention with
  | None -> ()
  | Some c ->
    (* Attribute the injected touch to the lane the partition currently
       occupies (lane 0 if it is not holding a core). *)
    Contention.set_lane c
      (match Pmk_mc.active_lane_of t.lane pid with Some l -> l | None -> 0);
    charge_shared_access t prt ~cost);
  let granted = match result with Ok () -> true | Error _ -> false in
  emit t (Event.Memory_access { partition = pid; address; granted });
  if not granted then
    report_partition_error t prt Error.Memory_violation
      ~detail:(Printf.sprintf "address 0x%x (injected)" address);
  granted

(* A bandwidth-hog fault: the partition saturates its lane's memory
   bandwidth. Modeled as a bulk demand injection of
   [budget * permille / 1000] units charged to the offender's account and
   lane at the injection tick. Returns the charged demand ([None] when no
   contention model is configured — the fault cannot exist without the
   model). A hog that pushes its account past its budget escalates
   through the HM as temporal-degradation via the ordinary charge path;
   victims co-running on other lanes degrade only through the modeled
   slowdown curve, which the campaign oracle checks from telemetry. *)
let inject_bandwidth_hog t pid ~permille =
  match t.contention with
  | None -> None
  | Some c ->
    if permille <= 0 then Some 0
    else begin
      let prt = prt_of t pid in
      let pi = Partition_id.index pid in
      let cost = Stdlib.max 1 (Contention.budget c pi * permille / 1000) in
      Contention.set_lane c
        (match Pmk_mc.active_lane_of t.lane pid with Some l -> l | None -> 0);
      charge_shared_access t prt ~cost;
      Some cost
    end

let inject_clock_jitter t pid ~ticks =
  if ticks > 0 then begin
    let prt = prt_of t pid in
    prt.jitter_left <- prt.jitter_left + ticks
  end

let network t = t.cfg.network
let hm_tables t = t.cfg.hm_tables
