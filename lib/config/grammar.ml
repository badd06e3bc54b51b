(* The (air-system …) grammar as one table: each form is a codec, each
   field of a record form appears once with its tag, codec, presence rule
   and getter. See the README for the grammar field by field. *)

open Air_sim
open Air_model
open Air_pos
open Air_ipc
open Decode
open Codec

(* --- Scripts ------------------------------------------------------------- *)

let action =
  let open Script in
  cases "action"
    [ case "compute" (one int) (fun n -> Compute n)
        (function Compute n -> Some n | _ -> None);
      form0 "periodic-wait" Periodic_wait;
      case "timed-wait" (one time) (fun d -> Timed_wait d)
        (function Timed_wait d -> Some d | _ -> None);
      case "replenish" (one time) (fun b -> Replenish b)
        (function Replenish b -> Some b | _ -> None);
      case "write-sampling" (atom ** one atom)
        (fun (p, m) -> Write_sampling (p, m))
        (function Write_sampling (p, m) -> Some (p, m) | _ -> None);
      case "read-sampling" (one atom) (fun p -> Read_sampling p)
        (function Read_sampling p -> Some p | _ -> None);
      case "send-queuing" (atom ** one atom)
        (fun (p, m) -> Send_queuing (p, m))
        (function Send_queuing (p, m) -> Some (p, m) | _ -> None);
      case "receive-queuing" (atom ** one timeout)
        (fun (p, t) -> Receive_queuing (p, t))
        (function Receive_queuing (p, t) -> Some (p, t) | _ -> None);
      case "wait-semaphore" (atom ** one timeout)
        (fun (s, t) -> Wait_semaphore (s, t))
        (function Wait_semaphore (s, t) -> Some (s, t) | _ -> None);
      case "signal-semaphore" (one atom) (fun s -> Signal_semaphore s)
        (function Signal_semaphore s -> Some s | _ -> None);
      case "wait-event" (atom ** one timeout)
        (fun (e, t) -> Wait_event (e, t))
        (function Wait_event (e, t) -> Some (e, t) | _ -> None);
      case "set-event" (one atom) (fun e -> Set_event e)
        (function Set_event e -> Some e | _ -> None);
      case "reset-event" (one atom) (fun e -> Reset_event e)
        (function Reset_event e -> Some e | _ -> None);
      case "display-blackboard" (atom ** one atom)
        (fun (b, m) -> Display_blackboard (b, m))
        (function Display_blackboard (b, m) -> Some (b, m) | _ -> None);
      case "clear-blackboard" (one atom) (fun b -> Clear_blackboard b)
        (function Clear_blackboard b -> Some b | _ -> None);
      case "read-blackboard" (atom ** one timeout)
        (fun (b, t) -> Read_blackboard (b, t))
        (function Read_blackboard (b, t) -> Some (b, t) | _ -> None);
      case "send-buffer" (atom ** atom ** one timeout)
        (fun (b, (m, t)) -> Send_buffer (b, m, t))
        (function Send_buffer (b, m, t) -> Some (b, (m, t)) | _ -> None);
      case "receive-buffer" (atom ** one timeout)
        (fun (b, t) -> Receive_buffer (b, t))
        (function Receive_buffer (b, t) -> Some (b, t) | _ -> None);
      case "read-memory" (one int) (fun a -> Read_memory a)
        (function Read_memory a -> Some a | _ -> None);
      case "write-memory" (one int) (fun a -> Write_memory a)
        (function Write_memory a -> Some a | _ -> None);
      case "log" (one atom) (fun m -> Log m)
        (function Log m -> Some m | _ -> None);
      case "raise-error" (one atom) (fun m -> Raise_application_error m)
        (function Raise_application_error m -> Some m | _ -> None);
      case "request-schedule" (one schedule_index) (fun i -> Request_schedule i)
        (function Request_schedule i -> Some i | _ -> None);
      form0 "log-schedule-status" Log_schedule_status;
      case "suspend-self" (one timeout) (fun t -> Suspend_self t)
        (function Suspend_self t -> Some t | _ -> None);
      case "resume" (one atom) (fun p -> Resume_process p)
        (function Resume_process p -> Some p | _ -> None);
      case "start" (one atom) (fun p -> Start_other p)
        (function Start_other p -> Some p | _ -> None);
      case "stop" (one atom) (fun p -> Stop_other p)
        (function Stop_other p -> Some p | _ -> None);
      form0 "stop-self" Stop_self;
      form0 "disable-interrupts" Disable_interrupts;
      form0 "lock-preemption" Lock_preemption;
      form0 "unlock-preemption" Unlock_preemption ]

(* --- Processes and partitions -------------------------------------------- *)

type process_decl = { spec : Process.spec; script : Script.t; autostart : bool }

(* [aperiodic], [(sporadic N)] or a bare period N. *)
let periodicity =
  let period = positive time in
  { dec =
      (fun n -> function
        | Sexp.Atom "aperiodic" -> Ok Process.Aperiodic
        | Sexp.List [ Sexp.Atom "sporadic"; b ] ->
          let* b = period.dec n b in
          Ok (Process.Sporadic b)
        | s ->
          let* t = period.dec n s in
          Ok (Process.Periodic t));
    enc =
      (fun n -> function
        | Process.Aperiodic -> Sexp.Atom "aperiodic"
        | Process.Sporadic b -> Sexp.List [ Sexp.Atom "sporadic"; time.enc n b ]
        | Process.Periodic t -> time.enc n t) }

let process =
  tagged "process"
    (record
       (fun name periodicity time_capacity wcet base_priority autostart
            actions on_end ->
         { spec =
             { Process.name; periodicity; time_capacity; wcet; base_priority };
           script = Script.make ~on_end actions;
           autostart })
    |+ req "name" (one atom) (fun p -> p.spec.name)
    |+ dft "period" (one periodicity) Process.Aperiodic (fun p ->
           p.spec.periodicity)
    |+ dft "capacity" (one time) Time.infinity (fun p -> p.spec.time_capacity)
    |+ dft "wcet" (one time) 0 (fun p -> p.spec.wcet)
    |+ dft "priority" (one int) 10 (fun p -> p.spec.base_priority)
    |+ dft "autostart" (one bool) true (fun p -> p.autostart)
    |+ lst "script" action (fun p -> Array.to_list p.script.Script.body)
    |+ dft "on-end"
         (one (enum "script end"
                 [ ("repeat", Script.Repeat); ("stop", Script.Stop) ]))
         Script.Repeat
         (fun p -> p.script.Script.on_end))

let discipline =
  enum "discipline" [ ("fifo", Intra.Fifo); ("priority", Intra.Priority) ]

let intra_object =
  let open Air.System in
  cases "object"
    [ case "semaphore" (atom ** int ** int ** opt_last Intra.Fifo discipline)
        (fun (name, (initial, (maximum, discipline))) ->
          Semaphore_object { name; initial; maximum; discipline })
        (function
          | Semaphore_object { name; initial; maximum; discipline } ->
            Some (name, (initial, (maximum, discipline)))
          | _ -> None);
      case "event" (one atom) (fun name -> Event_object { name })
        (function Event_object { name } -> Some name | _ -> None);
      case "blackboard" (atom ** one int)
        (fun (name, max_message_size) ->
          Blackboard_object { name; max_message_size })
        (function
          | Blackboard_object { name; max_message_size } ->
            Some (name, max_message_size)
          | _ -> None);
      case "buffer" (atom ** int ** int ** opt_last Intra.Fifo discipline)
        (fun (name, (depth, (max_message_size, discipline))) ->
          Buffer_object { name; depth; max_message_size; discipline })
        (function
          | Buffer_object { name; depth; max_message_size; discipline } ->
            Some (name, (depth, (max_message_size, discipline)))
          | _ -> None) ]

let processes_of (s : Air.System.partition_setup) =
  List.init (Partition.process_count s.partition) (fun q ->
      { spec = s.partition.Partition.processes.(q);
        script = s.scripts.(q);
        autostart = s.autostart.(q) })

let partition_kind =
  enum "partition kind"
    [ ("application", Partition.Application); ("system", Partition.System) ]

let policy =
  cases "policy"
    [ word "priority" Kernel.Priority_preemptive;
      case "round-robin" (one (positive int))
        (fun quantum -> Kernel.Round_robin { quantum })
        (function
          | Kernel.Round_robin { quantum } -> Some quantum
          | Kernel.Priority_preemptive -> None) ]

let deadline_store =
  enum "deadline store"
    [ ("linked-list", Air.Deadline_store.Linked_list_impl);
      ("avl-tree", Air.Deadline_store.Avl_impl);
      ("pairing-heap", Air.Deadline_store.Pairing_impl) ]

(* The partition's identifier is its declaration index [i]. *)
let partition i =
  tagged "partition"
    (record (fun name kind policy store processes intra_objects error_handler ->
         Air.System.partition_setup ~policy ~store ~intra_objects ?error_handler
           ~autostart:
             (List.map (fun p -> (p.spec.Process.name, p.autostart)) processes)
           (Partition.make ~kind ~id:(Ident.Partition_id.make i) ~name
              (List.map (fun p -> p.spec) processes))
           (List.map (fun p -> p.script) processes))
    |+ req "name" (one atom) (fun (s : Air.System.partition_setup) ->
           s.partition.Partition.name)
    |+ dft "kind" (one partition_kind) Partition.Application
         (fun (s : Air.System.partition_setup) -> s.partition.Partition.kind)
    |+ dft "policy" (one policy) Kernel.Priority_preemptive
         (fun (s : Air.System.partition_setup) -> s.policy)
    |+ dft "deadline-store" (one deadline_store)
         Air.Deadline_store.Linked_list_impl
         (fun (s : Air.System.partition_setup) -> s.store)
    |+ lst "processes" process processes_of
    |+ lst "objects" intra_object (fun (s : Air.System.partition_setup) ->
           s.intra_objects)
    |+ opt "error-handler" (one atom) (fun (s : Air.System.partition_setup) ->
           s.error_handler))

(* --- Schedules ----------------------------------------------------------- *)

let partition_id =
  map partition_index Ident.Partition_id.make Ident.Partition_id.index

let requirement =
  tagged "req"
    (record (fun partition cycle duration ->
         { Schedule.partition; cycle; duration })
    |+ req "partition" (one partition_id) (fun (r : Schedule.requirement) ->
           r.partition)
    |+ req "cycle" (one (positive time)) (fun r -> r.Schedule.cycle)
    |+ req "duration" (one time) (fun (r : Schedule.requirement) -> r.duration))

let window =
  tagged "window"
    (record (fun partition offset duration ->
         { Schedule.partition; offset; duration })
    |+ req "partition" (one partition_id) (fun w -> w.Schedule.partition)
    |+ req "offset" (one time) (fun w -> w.Schedule.offset)
    |+ req "duration" (one (positive time)) (fun w -> w.Schedule.duration))

let change_action =
  enum "change action"
    [ ("no-action", Schedule.No_action);
      ("warm-restart", Schedule.Warm_restart_partition);
      ("cold-restart", Schedule.Cold_restart_partition) ]

(* The schedule's identifier is its declaration index [i]. *)
let schedule i =
  tagged "schedule"
    (record (fun name mtf requirements windows change_actions ->
         Schedule.make ~change_actions ~id:(Ident.Schedule_id.make i) ~name ~mtf
           ~requirements windows)
    |+ req "name" (one atom) (fun s -> s.Schedule.name)
    |+ req "mtf" (one (positive time)) (fun s -> s.Schedule.mtf)
    |+ lst "requirements" requirement (fun s -> s.Schedule.requirements)
    |+ lst "windows" window (fun s -> s.Schedule.windows)
    |+ lst "change-actions" (list_of (partition_id ** one change_action))
         (fun s -> s.Schedule.change_actions))

(* --- Ports and channels -------------------------------------------------- *)

(* Fields shared by both port forms; the kind-specific getters are only
   asked of ports of their own kind. *)
let port_fields make =
  record make
  |+ req "name" (one atom) (fun c -> c.Port.name)
  |+ req "partition" (one partition_id) (fun c -> c.Port.partition)
  |+ req "direction"
       (one (enum "direction"
               [ ("source", Port.Source); ("destination", Port.Destination) ]))
       (fun c -> c.Port.direction)
  |+ dft "max-size" (one (positive int)) 64 (fun c -> c.Port.max_message_size)

let port =
  cases "port"
    [ record_case "sampling-port"
        (port_fields (fun name partition direction max_message_size refresh ->
             Port.sampling_port ~name ~partition ~direction ~refresh
               ~max_message_size)
        |+ req "refresh" (one (positive time)) (fun c ->
               match c.Port.kind with
               | Port.Sampling { refresh } -> refresh
               | Port.Queuing _ -> 0))
        (fun c ->
          match c.Port.kind with
          | Port.Sampling _ -> Some c
          | Port.Queuing _ -> None);
      record_case "queuing-port"
        (port_fields (fun name partition direction max_message_size depth ->
             Port.queuing_port ~name ~partition ~direction ~depth
               ~max_message_size)
        |+ dft "depth" (one (positive int)) 8 (fun c ->
               match c.Port.kind with
               | Port.Queuing { depth } -> depth
               | Port.Sampling _ -> 0))
        (fun c ->
          match c.Port.kind with
          | Port.Queuing _ -> Some c
          | Port.Sampling _ -> None) ]

let channel =
  tagged "channel"
    (record (fun source destinations -> { Port.source; destinations })
    |+ req "source" (one atom) (fun c -> c.Port.source)
    |+ req "destinations" (many atom) (fun c -> c.Port.destinations))

(* --- Health monitoring tables -------------------------------------------- *)

let error_code =
  enum "error code"
    (List.map
       (fun c -> (Format.asprintf "%a" Error.pp_code c, c))
       Error.all_codes)

let rec process_action =
  lazy
    (cases "process recovery action"
       [ word "ignore" Error.Ignore_error;
         word "restart-process" Error.Restart_process;
         word "stop-process" Error.Stop_process;
         word "stop-partition" Error.Stop_partition_of_process;
         case "restart-partition"
           (one (enum "restart mode"
                   [ ("warm", Partition.Warm_start);
                     ("cold", Partition.Cold_start) ]))
           (fun m -> Error.Restart_partition_of_process m)
           (function
             | Error.Restart_partition_of_process m -> Some m | _ -> None);
         case "log-then" (int ** one (delay process_action))
           (fun (n, a) -> Error.Log_then (n, a))
           (function Error.Log_then (n, a) -> Some (n, a) | _ -> None) ])

(* Entries keyed by a name or by a wildcard: the keyed ones and the
   wildcard ones, each in document order. *)
let split_wild entries =
  map entries
    (fun l ->
      ( List.filter_map (function Some k, v -> Some (k, v) | None, _ -> None) l,
        List.filter_map (function None, v -> Some v | Some _, _ -> None) l ))
    (fun (keyed, wild) ->
      List.map (fun v -> (None, v)) wild
      @ List.map (fun (k, v) -> (Some k, v)) keyed)

(* [(PARTITION CODE ACTION)] entries; a [*] partition makes the entry a
   default for every partition without a specific entry for the code. *)
let targeted action =
  map
    (split_wild
       (many (list_of (wild "*" partition_id ** error_code ** one action))))
    (fun (specific, defaults) ->
      (List.map (fun (p, (c, a)) -> (p, c, a)) specific, defaults))
    (fun (specific, defaults) ->
      (List.map (fun (p, c, a) -> (p, (c, a))) specific, defaults))

let hm =
  body "hm"
    (record
       (fun (process_actions, process_defaults)
            (partition_actions, partition_defaults) module_actions ->
         { Air.Hm.process_actions; partition_actions; module_actions;
           process_defaults; partition_defaults })
    |+ dft "process-errors" (targeted (Lazy.force process_action)) ([], [])
         (fun t -> (t.Air.Hm.process_actions, t.Air.Hm.process_defaults))
    |+ dft "partition-errors"
         (targeted
            (enum "partition recovery action"
               [ ("ignore", Error.Partition_ignore);
                 ("idle", Error.Partition_idle);
                 ("warm-restart", Error.Partition_warm_restart);
                 ("cold-restart", Error.Partition_cold_restart) ]))
         ([], [])
         (fun t -> (t.Air.Hm.partition_actions, t.Air.Hm.partition_defaults))
    |+ lst "module-errors"
         (list_of
            (error_code
            ** one (enum "module recovery action"
                      [ ("ignore", Error.Module_ignore);
                        ("shutdown", Error.Module_shutdown);
                        ("reset", Error.Module_reset) ])))
         (fun t -> t.Air.Hm.module_actions))

(* --- Telemetry and causal tracing ---------------------------------------- *)

(* A [*] (or absent) schedule makes the watchdog the default; named ones
   override it for frames run under that schedule. *)
let watchdog =
  let module T = Air_obs.Telemetry in
  tagged "watchdog"
    (record
       (fun schedule min_slack max_jitter_p99 max_catch_up
            max_deadline_misses ->
         ( schedule,
           T.watchdog ?min_slack ?max_jitter_p99 ?max_catch_up
             ?max_deadline_misses () ))
    |+ dft "schedule" (one (wild "*" schedule_index)) None fst
    |+ opt "min-slack" (one int) (fun (_, w) -> w.T.min_slack)
    |+ opt "max-jitter-p99" (one int) (fun (_, w) -> w.T.max_jitter_p99)
    |+ opt "max-catch-up" (one int) (fun (_, w) -> w.T.max_catch_up)
    |+ opt "max-deadline-misses" (one int) (fun (_, w) ->
           w.T.max_deadline_misses))

let watchdogs =
  let module T = Air_obs.Telemetry in
  conv (split_wild (many watchdog))
    (fun n (overrides, defaults) ->
      let rec dup = function
        | [] -> Ok ()
        | (i, _) :: rest ->
          if List.mem_assoc i rest then
            error "duplicate watchdog for schedule %s" n.schedules.(i)
          else dup rest
      in
      let* () = dup overrides in
      match defaults with
      | [] -> Ok (T.no_watchdog, overrides)
      | [ d ] -> Ok (d, overrides)
      | _ -> error "duplicate default (schedule *) watchdog")
    (fun (default, overrides) ->
      (overrides, if T.watchdog_is_trivial default then [] else [ default ]))

let telemetry =
  let module T = Air_obs.Telemetry in
  body "telemetry"
    (record (fun retention (default_watchdog, schedule_watchdogs) ->
         T.config ?retention ~default_watchdog ~schedule_watchdogs ())
    |+ opt "retention" (one (positive int)) (fun c -> c.T.retention)
    |+ dft "watchdogs" watchdogs (T.no_watchdog, []) (fun c ->
           (c.T.default_watchdog, c.T.schedule_watchdogs)))

(* (causal (retention N)): stamp every IPC message with a correlation id;
   the retention bounds the hop-record ring. *)
let causal =
  body "causal"
    (record (fun capacity -> Air_obs.Causal.create ?capacity ())
    |+ opt "retention" (one (positive int)) (fun c ->
           Some (Air_obs.Causal.capacity c)))

(* --- Contention ---------------------------------------------------------- *)

(* (budget (default N) (PARTITION N) …): the default budget and the
   per-partition overrides. *)
let budgets =
  conv
    (split_wild (many (list_of (wild "default" partition_index ** one int))))
    (fun _ (overrides, defaults) ->
      match defaults with
      | [ d ] -> Ok (d, overrides)
      | [] -> error "missing (default N)"
      | _ -> error "duplicate (default N)")
    (fun (default, overrides) -> (overrides, [ default ]))

(* A present-but-empty (curve) models contention without slowdown, and is
   distinct from an absent one (the default one-step curve). *)
let contention =
  let module C = Air_spatial.Contention in
  body "contention"
    (record
       (fun (default_budget, budgets) curve compute_cost
            pressure_decay_permille ->
         C.config ~budgets ?curve ?compute_cost ?pressure_decay_permille
           ~default_budget ())
    |+ req "budget" budgets (fun c -> (c.C.default_budget, c.C.budgets))
    |+ opt "curve" (many (list_of (int ** one int))) (fun c -> Some c.C.curve)
    |+ opt "compute-cost" (one int) (fun c -> Some c.C.compute_cost)
    |+ opt "pressure-decay" (one int) (fun c ->
           Some c.C.pressure_decay_permille))

(* --- Fault campaigns (decode only) --------------------------------------- *)

let fault =
  let open Air_faults.Fault in
  let port_fault (port, fault) = Port_fault { port; fault } in
  let link fault = Link_fault { fault } in
  let memory_section =
    enum "memory section"
      Air_spatial.Memory.
        [ ("code", Code); ("data", Data); ("stack", Stack); ("io", Io) ]
  in
  let write = enum "access" [ ("read", false); ("write", true) ] in
  let restart_mode =
    enum "restart mode"
      [ ("warm", Partition.Warm_start); ("cold", Partition.Cold_start);
        ("idle", Partition.Idle) ]
  in
  cases "fault form"
    [ decode_case "runaway-start" (partition_index ** one atom)
        (fun (partition, process) -> Runaway_start { partition; process });
      decode_case "process-stop" (partition_index ** one atom)
        (fun (partition, process) -> Process_stop { partition; process });
      decode_case "restart-partition" (partition_index ** one restart_mode)
        (fun (partition, mode) -> Partition_restart { partition; mode });
      decode_case "request-schedule" (one schedule_index) (fun schedule ->
          Schedule_request { schedule });
      decode_case "clock-jitter" (partition_index ** one int)
        (fun (partition, ticks) -> Clock_jitter { partition; ticks });
      decode_case "wild-access"
        (partition_index ** memory_section ** write ** opt_last 64 int)
        (fun (partition, (section, (write, offset))) ->
          Wild_access { partition; section; offset; write });
      decode_case "bit-flip"
        (partition_index ** memory_section ** int ** one write)
        (fun (partition, (section, (bit, write))) ->
          Bit_flip { partition; section; bit; write });
      decode_case "bandwidth-hog" (partition_index ** one int)
        (fun (partition, permille) -> Bandwidth_hog { partition; permille });
      decode_case "message-loss" (one atom) (fun p -> port_fault (p, Msg_loss));
      decode_case "message-duplicate" (one atom) (fun p ->
          port_fault (p, Msg_duplicate));
      decode_case "message-corrupt" (atom ** one int) (fun (p, byte) ->
          port_fault (p, Msg_corrupt { byte }));
      decode_case "message-delay" (atom ** one int) (fun (p, ticks) ->
          port_fault (p, Msg_delay { ticks }));
      decode_case "message-reorder" (one atom) (fun p ->
          port_fault (p, Msg_reorder));
      decode_case "link-loss" nil (fun () -> link Msg_loss);
      decode_case "link-duplicate" nil (fun () -> link Msg_duplicate);
      decode_case "link-corrupt" (one int) (fun byte ->
          link (Msg_corrupt { byte }));
      decode_case "link-delay" (one int) (fun ticks ->
          link (Msg_delay { ticks }));
      decode_case "link-reorder" nil (fun () -> link Msg_reorder);
      decode_case "module-error" (one error_code) (fun code ->
          Module_error { code }) ]

let campaign =
  let module C = Air_faults.Campaign in
  tagged "campaign"
    (record (fun name seed horizon injections rates ->
         C.spec ~name ~injections ~rates ~seed ~horizon ())
    |+ dft "name" (one atom) "campaign" (fun c -> c.C.name)
    |+ req "seed" (one int) (fun c -> c.C.seed)
    |+ req "horizon" (one (positive int)) (fun c -> c.C.horizon)
    |+ lst "injections"
         (tagged "inject"
            (record (fun at fault -> { C.at; fault })
            |+ req "at" (one time) (fun i -> i.C.at)
            |+ req "fault" (one fault) (fun i -> i.C.fault)))
         (fun c -> c.C.injections)
    |+ lst "rates"
         (tagged "rate"
            (record (fun per_mtf_permille template ->
                 { C.per_mtf_permille; template })
            |+ req "per-mtf-permille" (one int) (fun r -> r.C.per_mtf_permille)
            |+ req "fault" (one fault) (fun r -> r.C.template)))
         (fun c -> c.C.rates))

let campaigns n args = (many campaign).dec n args

(* --- The system document ------------------------------------------------- *)

let system =
  tagged "air-system"
    (record
       (fun partitions schedules ports channels initial_schedule hm_tables
            telemetry causal contention cores () ->
         Air.System.config ?initial_schedule ~network:{ Port.ports; channels }
           ~hm_tables ?telemetry ?causal ?contention ?cores ~partitions
           ~schedules ())
    |+ dft "partitions" (indexed partition) [] (fun c ->
           c.Air.System.partitions)
    |+ dft "schedules" (indexed schedule) [] (fun c -> c.Air.System.schedules)
    |+ lst "ports" port (fun c -> c.Air.System.network.Port.ports)
    |+ lst "channels" channel (fun c -> c.Air.System.network.Port.channels)
    |+ opt "initial-schedule"
         (one
            (map schedule_index Ident.Schedule_id.make Ident.Schedule_id.index))
         (fun c -> c.Air.System.initial_schedule)
    |+ dft "hm" hm Air.Hm.default_tables (fun c -> c.Air.System.hm_tables)
    |+ section "telemetry" telemetry (fun c -> c.Air.System.telemetry)
    |+ section "causal" causal (fun c -> c.Air.System.causal)
    |+ section "contention" contention (fun c -> c.Air.System.contention)
    |+ opt "cores" (one (positive int)) (fun c -> c.Air.System.cores)
    |+ decode_only "faults" campaigns)

(* The names a document declares, in declaration order — read before the
   document itself, which refers to them. *)
let names_of_doc doc =
  let* body = Decode.tagged "air-system" doc in
  let* f = fields_of ~context:"air-system" body in
  let names kind tag =
    let* l =
      map_all
        (fun s ->
          let* _, args = tag_of s in
          let* f = fields_of ~context:kind args in
          required f "name" (Decode.one Decode.atom))
        (rest_of f tag)
    in
    Ok (Array.of_list l)
  in
  let* partitions = names "partition" "partitions" in
  let* schedules = names "schedule" "schedules" in
  Ok { partitions; schedules }

let names_of_config (cfg : Air.System.config) =
  { partitions =
      Array.of_list
        (List.map
           (fun s -> s.Air.System.partition.Partition.name)
           cfg.partitions);
    schedules =
      Array.of_list
        (List.map (fun s -> s.Schedule.name) cfg.Air.System.schedules) }
